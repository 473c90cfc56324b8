(* The Larson server benchmark: threads continually replace objects in
   their working sets and periodically hand whole sets to the next thread
   (cross-thread frees, "bleeding"). Prints throughput per allocator as
   processors scale — the paper's headline server result.

     dune exec examples/larson_server.exe -- [max_procs]
*)

let () =
  let max_procs =
    if Array.length Sys.argv > 1 then
      match int_of_string_opt Sys.argv.(1) with
      | Some n when n >= 1 -> n
      | _ ->
        prerr_endline "usage: larson_server [max_procs]";
        exit 1
    else 8
  in
  let workload =
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 200; handoffs = 4; objects_per_thread = 800 }
      ()
  in
  let allocators =
    [ Locked_heaps.serial (); Locked_heaps.concurrent_single (); Locked_heaps.private_ownership (); Hoard.factory () ]
  in
  Printf.printf "Larson throughput (memory ops per Mcycle), up to %d processors:\n\n" max_procs;
  Printf.printf "%4s" "P";
  List.iter (fun f -> Printf.printf " %18s" f.Alloc_intf.label) allocators;
  print_newline ();
  let p = ref 1 in
  while !p <= max_procs do
    Printf.printf "%4d" !p;
    List.iter
      (fun f ->
        let r = Runner.run (Runner.spec workload f ~nprocs:!p) in
        Printf.printf " %18.0f" (Runner.ops_per_mcycle r))
      allocators;
    print_newline ();
    p := !p * 2
  done;
  print_endline "\nHoard and ownership-based heaps keep scaling; the serial allocator's";
  print_endline "single lock caps throughput regardless of processor count."
