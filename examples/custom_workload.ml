(* Building your own experiment from the public API:
   1. generate a synthetic allocation trace (mixed small/large sizes),
   2. replay it against two allocators on identical simulated machines,
   3. compare cycles, fragmentation and coherence traffic.

     dune exec examples/custom_workload.exe
*)

let () =
  (* A trace with an 80/20 mix of small structs and multi-KB buffers,
     4 logical threads, ~60 live objects per thread. *)
  let trace =
    Trace.generate ~seed:2026 ~ops:20_000 ~threads:4 ~live_target:60
      ~size_dist:
        (Trace.Mixed
           [
             (0.8, Trace.Geometric { min_size = 16; mean = 96.0; max_size = 1024 });
             (0.2, Trace.Uniform (2048, 16_384));
           ])
      ()
  in
  (match Trace.validate trace with
   | Ok () -> ()
   | Error m -> failwith m);
  Printf.printf "trace: %d ops, inherent peak live %d bytes\n\n" (Trace.length trace)
    (Trace.max_live_bytes trace);

  let replay_on (factory : Alloc_intf.factory) =
    let sim = Sim.create ~nprocs:4 () in
    let a = factory.Alloc_intf.instantiate (Sim.platform sim) in
    Trace.replay_sim trace sim a ~nthreads:4;
    Sim.run sim;
    a.Alloc_intf.check ();
    let s = a.Alloc_intf.stats () in
    Printf.printf "%-20s cycles=%-10d frag=%-6.2f invalidations=%-8d os_maps=%d\n" factory.Alloc_intf.label
      (Sim.total_cycles sim) (Alloc_stats.fragmentation s)
      (Cache.total_invalidations (Sim.cache sim))
      s.Alloc_stats.os_maps
  in
  List.iter replay_on
    [
      Locked_heaps.serial ();
      Private_heaps.pure_private ();
      Locked_heaps.private_ownership ();
      Hoard.factory ();
    ];

  (* Traces serialise to a simple text format for archiving and diffing. *)
  let text = Trace.to_string trace in
  Printf.printf "\nserialised trace: %d bytes; first line: %s\n" (String.length text)
    (List.hd (String.split_on_char '\n' text))
