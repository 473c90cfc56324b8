(* Allocation traces: validation, generation, serialisation, replay. *)

let mk_ops =
  [
    Trace.Malloc { id = 0; size = 64; tid = 0 };
    Trace.Malloc { id = 1; size = 128; tid = 0 };
    Trace.Free { id = 0; tid = 0 };
    Trace.Malloc { id = 2; size = 32; tid = 1 };
    Trace.Free { id = 1; tid = 1 };
    Trace.Free { id = 2; tid = 1 };
  ]

let test_build_and_read () =
  let t = Trace.of_list mk_ops in
  Alcotest.(check int) "length" 6 (Trace.length t);
  Alcotest.(check bool) "roundtrip list" true (Trace.to_list t = mk_ops);
  match Trace.get t 0 with
  | Trace.Malloc { id; size; tid } ->
    Alcotest.(check (triple int int int)) "first op" (0, 64, 0) (id, size, tid)
  | Trace.Free _ -> Alcotest.fail "expected malloc"

let test_validate_ok () =
  Alcotest.(check bool) "valid" true (Trace.validate (Trace.of_list mk_ops) = Ok ())

let test_validate_rejects_double_free () =
  let bad =
    Trace.of_list [ Trace.Malloc { id = 0; size = 8; tid = 0 }; Trace.Free { id = 0; tid = 0 }; Trace.Free { id = 0; tid = 0 } ]
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Trace.validate bad))

let test_validate_rejects_free_before_malloc () =
  let bad = Trace.of_list [ Trace.Free { id = 7; tid = 0 } ] in
  Alcotest.(check bool) "rejected" true (Result.is_error (Trace.validate bad))

let test_validate_rejects_bad_size () =
  let bad = Trace.of_list [ Trace.Malloc { id = 0; size = 0; tid = 0 } ] in
  Alcotest.(check bool) "rejected" true (Result.is_error (Trace.validate bad))

let test_max_live () =
  Alcotest.(check int) "peak 192" 192 (Trace.max_live_bytes (Trace.of_list mk_ops))

let test_live_at_end () =
  let t = Trace.of_list [ Trace.Malloc { id = 3; size = 8; tid = 0 }; Trace.Malloc { id = 1; size = 8; tid = 0 } ] in
  Alcotest.(check (list int)) "both live" [ 1; 3 ] (Trace.live_at_end t)

let test_serialise_roundtrip () =
  let t = Trace.of_list mk_ops in
  match Trace.of_string (Trace.to_string t) with
  | Ok t' -> Alcotest.(check bool) "identical" true (Trace.to_list t' = mk_ops)
  | Error m -> Alcotest.fail m

let test_parse_errors () =
  Alcotest.(check bool) "garbage rejected" true (Result.is_error (Trace.of_string "x 1 2\n"));
  Alcotest.(check bool) "bad int rejected" true (Result.is_error (Trace.of_string "m a 8 0\n"))

let test_generate_wellformed () =
  let t = Trace.generate ~ops:5000 ~threads:4 ~live_target:50 ~size_dist:(Trace.Uniform (8, 256)) () in
  Alcotest.(check bool) "valid" true (Trace.validate t = Ok ());
  Alcotest.(check (list int)) "drains clean" [] (Trace.live_at_end t);
  Alcotest.(check bool) "has enough ops" true (Trace.length t >= 5000)

let test_generate_deterministic () =
  let gen () =
    Trace.to_string (Trace.generate ~seed:9 ~ops:1000 ~threads:2 ~live_target:20 ~size_dist:(Trace.Uniform (8, 64)) ())
  in
  Alcotest.(check string) "same trace" (gen ()) (gen ())

let test_generate_size_dists () =
  List.iter
    (fun dist ->
      let t = Trace.generate ~ops:1000 ~threads:2 ~live_target:30 ~size_dist:dist () in
      Trace.iter
        (function
          | Trace.Malloc { size; _ } -> Alcotest.(check bool) "size positive" true (size > 0)
          | Trace.Free _ -> ())
        t)
    [
      Trace.Uniform (1, 1000);
      Trace.Geometric { min_size = 8; mean = 100.0; max_size = 4096 };
      Trace.Mixed [ (0.7, Trace.Uniform (8, 64)); (0.3, Trace.Uniform (1000, 20000)) ];
    ]

let test_replay_host () =
  let t = Trace.generate ~ops:4000 ~threads:3 ~live_target:40 ~size_dist:(Trace.Uniform (8, 2000)) () in
  let a = (Hoard.factory ()).Alloc_intf.instantiate (Platform.host ()) in
  let stats = Trace.replay t a in
  Alcotest.(check int) "all ops replayed" (Trace.length t) stats.Trace.replayed_ops;
  Alcotest.(check int) "allocator empty after" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  Alcotest.(check bool) "peak matches trace" true (stats.Trace.replay_peak_live = Trace.max_live_bytes t);
  a.Alloc_intf.check ()

let test_replay_differential () =
  (* Every allocator must replay the same trace and end empty. *)
  let t = Trace.generate ~seed:17 ~ops:3000 ~threads:2 ~live_target:30 ~size_dist:(Trace.Uniform (8, 4000)) () in
  List.iter
    (fun (f : Alloc_intf.factory) ->
      let a = f.Alloc_intf.instantiate (Platform.host ()) in
      ignore (Trace.replay t a);
      Alcotest.(check int) (f.Alloc_intf.label ^ " empty") 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
      a.Alloc_intf.check ())
    [
      Locked_heaps.serial ();
      Locked_heaps.concurrent_single ();
      Private_heaps.pure_private ();
      Locked_heaps.private_ownership ();
      Hoard.factory ();
    ]

let test_replay_sim_multithreaded () =
  let t = Trace.generate ~ops:4000 ~threads:4 ~live_target:40 ~size_dist:(Trace.Uniform (8, 512)) () in
  let sim = Sim.create ~nprocs:4 () in
  let a = (Hoard.factory ()).Alloc_intf.instantiate (Sim.platform sim) in
  Trace.replay_sim t sim a ~nthreads:4;
  Sim.run sim;
  Alcotest.(check int) "allocator empty after" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  a.Alloc_intf.check ()

let test_replay_sim_cross_thread_frees () =
  (* A trace where thread 1 frees what thread 0 allocated. *)
  let ops =
    List.concat
      (List.init 50 (fun i ->
           [ Trace.Malloc { id = i; size = 64; tid = 0 }; Trace.Free { id = i; tid = 1 } ]))
  in
  let t = Trace.of_list ops in
  let sim = Sim.create ~nprocs:2 () in
  let a = (Hoard.factory ()).Alloc_intf.instantiate (Sim.platform sim) in
  Trace.replay_sim t sim a ~nthreads:2;
  Sim.run sim;
  Alcotest.(check int) "empty" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_replay_sim_crosses_window_boundary () =
  (* Mallocs in one 1024-op window freed by another thread several windows
     later: the deferred-free machinery must resolve them. *)
  let ops = ref [] in
  for i = 0 to 2999 do
    ops := Trace.Malloc { id = i; size = 32; tid = 0 } :: !ops
  done;
  for i = 0 to 2999 do
    ops := Trace.Free { id = i; tid = 1 } :: !ops
  done;
  let t = Trace.of_list (List.rev !ops) in
  (match Trace.validate t with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let sim = Sim.create ~nprocs:2 () in
  let a = (Hoard.factory ()).Alloc_intf.instantiate (Sim.platform sim) in
  Trace.replay_sim t sim a ~nthreads:2;
  Sim.run sim;
  Alcotest.(check int) "all resolved" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_replay_property =
  QCheck.Test.make ~name:"random traces replay cleanly on hoard" ~count:25
    QCheck.(pair (int_range 100 2000) (int_range 1 4))
    (fun (ops, threads) ->
      let t = Trace.generate ~seed:(ops + threads) ~ops ~threads ~live_target:25 ~size_dist:(Trace.Uniform (1, 6000)) () in
      let a = (Hoard.factory ()).Alloc_intf.instantiate (Platform.host ()) in
      ignore (Trace.replay t a);
      a.Alloc_intf.check ();
      (a.Alloc_intf.stats ()).Alloc_stats.live_bytes = 0)

let () =
  Alcotest.run "trace"
    [
      ( "structure",
        [
          Alcotest.test_case "build/read" `Quick test_build_and_read;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "double free" `Quick test_validate_rejects_double_free;
          Alcotest.test_case "free before malloc" `Quick test_validate_rejects_free_before_malloc;
          Alcotest.test_case "bad size" `Quick test_validate_rejects_bad_size;
          Alcotest.test_case "max live" `Quick test_max_live;
          Alcotest.test_case "live at end" `Quick test_live_at_end;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialise_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "generation",
        [
          Alcotest.test_case "well-formed" `Quick test_generate_wellformed;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "size distributions" `Quick test_generate_size_dists;
        ] );
      ( "replay",
        [
          Alcotest.test_case "host replay" `Quick test_replay_host;
          Alcotest.test_case "differential" `Quick test_replay_differential;
          Alcotest.test_case "sim multithreaded" `Quick test_replay_sim_multithreaded;
          Alcotest.test_case "sim cross-thread frees" `Quick test_replay_sim_cross_thread_frees;
          Alcotest.test_case "sim window boundary" `Quick test_replay_sim_crosses_window_boundary;
          QCheck_alcotest.to_alcotest test_replay_property;
        ] );
    ]
