(* Barnes-Hut n-body on the simulated machine: real octree physics whose
   tree nodes come from the allocator under test. Prints the speedup curve
   for Hoard and the serial allocator, plus a physics sanity summary.

     dune exec examples/barnes_hut_demo.exe
*)

let params = { Barnes_hut.default_params with Barnes_hut.nbodies = 192; steps = 3 }

let run factory nprocs =
  let w = Barnes_hut.make ~params () in
  (Runner.run (Runner.spec w factory ~nprocs)).Runner.r_cycles

let () =
  (* Physics sanity first, with the pure sequential stepper. *)
  let s = Barnes_hut.init_system params in
  Printf.printf "system: %d bodies, total mass %.1f\n" params.Barnes_hut.nbodies (Barnes_hut.total_mass s);
  for step = 1 to 3 do
    Barnes_hut.step_sequential s;
    Printf.printf "  step %d: kinetic energy %.4f\n" step (Barnes_hut.kinetic_energy s)
  done;

  print_endline "\nspeedup of the simulated parallel run (tree nodes heap-allocated each step):";
  Printf.printf "%4s %14s %14s\n" "P" "hoard" "serial";
  let base_h = run (Hoard.factory ()) 1 in
  let base_s = run (Locked_heaps.serial ()) 1 in
  List.iter
    (fun p ->
      let h = run (Hoard.factory ()) p in
      let se = run (Locked_heaps.serial ()) p in
      Printf.printf "%4d %14.2f %14.2f\n" p (float_of_int base_h /. float_of_int h)
        (float_of_int base_s /. float_of_int se))
    [ 1; 2; 4; 8 ];
  print_endline "\nBarnes-Hut is compute-dominated, so both allocators scale, with the";
  print_endline "serial allocator paying for its lock during the tree-build churn."
