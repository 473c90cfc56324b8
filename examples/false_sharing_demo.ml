(* Demonstrates allocator-induced false sharing, measured directly as
   cache-line invalidations by the coherence simulator.

   The serial allocator hands consecutive 8-byte blocks — sharing one
   cache line — to different processors; their writes then ping-pong the
   line. Hoard's per-processor heaps keep each processor's blocks on its
   own superblocks, so the same program generates orders of magnitude
   fewer invalidations.

     dune exec examples/false_sharing_demo.exe
*)

let run (factory : Alloc_intf.factory) =
  let workload =
    False_sharing.active
      ~params:{ False_sharing.default_params with False_sharing.loops = 800; writes_per_object = 100 }
      ()
  in
  let r = Runner.run (Runner.spec workload factory ~nprocs:4) in
  (r.Runner.r_cycles, r.Runner.r_invalidations, r.Runner.r_ops)

let () =
  print_endline "active-false on a 4-processor machine (each thread: malloc 8B, write 100x, free):\n";
  Printf.printf "%-20s %12s %15s %12s\n" "allocator" "cycles" "invalidations" "inval/op";
  List.iter
    (fun factory ->
      let cycles, invals, ops = run factory in
      Printf.printf "%-20s %12d %15d %12.2f\n" factory.Alloc_intf.label cycles invals
        (float_of_int invals /. float_of_int ops))
    [ Locked_heaps.serial (); Locked_heaps.concurrent_single (); Locked_heaps.private_ownership (); Hoard.factory () ];
  print_endline "\nThe serial and concurrent-single allocators actively induce false";
  print_endline "sharing (blocks from one cache line go to different processors);";
  print_endline "Hoard and ownership-based heaps avoid it."
