(* Scheduler, clock, lock and barrier semantics of the simulated machine. *)

let um = Cost_model.uniform_memory

let test_single_thread_work () =
  let sim = Sim.create ~cost:um ~nprocs:1 () in
  ignore (Sim.spawn sim (fun () -> Sim.work 100));
  Sim.run sim;
  Alcotest.(check int) "100 cycles" 100 (Sim.total_cycles sim)

let test_parallel_work_overlaps () =
  let sim = Sim.create ~cost:um ~nprocs:4 () in
  for _ = 1 to 4 do
    ignore (Sim.spawn sim (fun () -> Sim.work 1000))
  done;
  Sim.run sim;
  Alcotest.(check int) "perfect overlap" 1000 (Sim.total_cycles sim)

let test_two_threads_one_proc_serialise () =
  let sim = Sim.create ~cost:um ~nprocs:1 () in
  ignore (Sim.spawn sim (fun () -> Sim.work 500));
  ignore (Sim.spawn sim (fun () -> Sim.work 500));
  Sim.run sim;
  Alcotest.(check int) "serialised" 1000 (Sim.total_cycles sim)

(* Under the timing schedule a thread keeps its processor until it
   finishes, blocks, fails an acquisition or exhausts its time slice. *)
let log_steps sim log ~proc c =
  ignore
    (Sim.spawn sim ~proc (fun () ->
         for _ = 1 to 10 do
           Buffer.add_char log c;
           Sim.work 1
         done))

let test_colocated_threads_run_to_completion () =
  let sim = Sim.create ~cost:um ~nprocs:1 () in
  let log = Buffer.create 20 in
  log_steps sim log ~proc:0 'a';
  log_steps sim log ~proc:0 'b';
  Sim.run sim;
  Alcotest.(check string) "first thread finishes first" "aaaaaaaaaabbbbbbbbbb" (Buffer.contents log)

let test_fuzzed_interleaves_colocated_threads () =
  let sim = Sim.create ~cost:um ~fuzz_schedule:5 ~nprocs:1 () in
  let log = Buffer.create 20 in
  log_steps sim log ~proc:0 'a';
  log_steps sim log ~proc:0 'b';
  Sim.run sim;
  Alcotest.(check string) "one step per turn" "abababababababababab" (Buffer.contents log)

let test_colocated_waiter_spins_once_per_turn () =
  (* A holds [outer] while it spins on [inner], which C holds on the other
     processor; B, on A's processor, spins on [outer]. Each failed attempt
     yields, so A and B alternate one spin each. Once A enters [inner] it
     keeps the processor: its critical section advances the processor's
     clock by its own work alone, and B spins no more. *)
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let outer = Sim.new_lock sim "outer" and inner = Sim.new_lock sim "inner" in
  let spins = Hashtbl.create 4 in
  Sim.set_lock_hooks sim ~on_acquire:(fun ~name ~proc:_ ~spins:n ~at:_ -> Hashtbl.replace spins name n) ();
  let section = ref (-1) in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         Sim.acquire outer;
         Sim.work 100;
         Sim.acquire inner;
         let t0 = Sim.now () in
         for _ = 1 to 10 do
           Sim.work 5
         done;
         section := Sim.now () - t0;
         Sim.release inner;
         Sim.release outer));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.acquire inner;
         Sim.work 1000;
         Sim.release inner));
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         Sim.acquire outer;
         Sim.release outer));
  Sim.run sim;
  let a = Hashtbl.find spins "inner" and b = Hashtbl.find spins "outer" in
  Alcotest.(check bool) (Printf.sprintf "holder spun (%d)" a) true (a > 10);
  Alcotest.(check bool) (Printf.sprintf "waiter spins %d, holder %d" b a) true (abs (a - b) <= 1);
  Alcotest.(check int) "critical section not interleaved" 50 !section

let test_polling_thread_yields_at_slice_end () =
  (* Only the co-located B sets the flag A polls, so A's loop ends only
     because its slice does. *)
  let sim = Sim.create ~cost:um ~nprocs:1 () in
  let flag = Sim.new_atomic sim "flag" 0 in
  let set_at = ref (-1) in
  ignore
    (Sim.spawn sim (fun () ->
         while Sim.atomic_load flag = 0 do
           Sim.work 1000
         done));
  ignore
    (Sim.spawn sim (fun () ->
         set_at := Sim.now ();
         Sim.atomic_store flag 1));
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "flag set after one slice (%d)" !set_at)
    true
    (!set_at >= Sim.time_slice && !set_at < 2 * Sim.time_slice)

let test_self_ids () =
  let sim = Sim.create ~cost:um ~nprocs:3 () in
  let seen = Array.make 3 (-1) in
  for _ = 0 to 2 do
    ignore (Sim.spawn sim (fun () -> seen.(Sim.self_tid ()) <- Sim.self_proc ()))
  done;
  Sim.run sim;
  Alcotest.(check (array int)) "round-robin placement" [| 0; 1; 2 |] seen

let test_spawn_pinned () =
  let sim = Sim.create ~cost:um ~nprocs:4 () in
  let proc = ref (-1) in
  ignore (Sim.spawn sim ~proc:3 (fun () -> proc := Sim.self_proc ()));
  Sim.run sim;
  Alcotest.(check int) "pinned to proc 3" 3 !proc

let test_lock_mutual_exclusion () =
  let sim = Sim.create ~nprocs:4 () in
  let lock = Sim.new_lock sim "l" in
  let inside = ref 0 and max_inside = ref 0 and count = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 50 do
             Sim.acquire lock;
             incr inside;
             if !inside > !max_inside then max_inside := !inside;
             Sim.work 10;
             incr count;
             decr inside;
             Sim.release lock
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "never two holders" 1 !max_inside;
  Alcotest.(check int) "all sections ran" 200 !count;
  Alcotest.(check int) "acquisitions counted" 200 (Sim.lock_acquisitions lock)

let test_lock_contention_costs_cycles () =
  (* Same total work, with and without contention on one lock. *)
  let run ~shared =
    let sim = Sim.create ~nprocs:4 () in
    let locks =
      if shared then Array.make 4 (Sim.new_lock sim "shared") else Array.init 4 (fun i -> Sim.new_lock sim (string_of_int i))
    in
    for i = 0 to 3 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 100 do
               Sim.acquire locks.(i);
               Sim.work 20;
               Sim.release locks.(i)
             done))
    done;
    Sim.run sim;
    Sim.total_cycles sim
  in
  let contended = run ~shared:true and independent = run ~shared:false in
  Alcotest.(check bool)
    (Printf.sprintf "contended (%d) slower than independent (%d)" contended independent)
    true
    (contended > 2 * independent)

let test_ticket_lock_mutual_exclusion () =
  let sim = Sim.create ~lock_kind:Sim.Ticket ~nprocs:4 () in
  let lock = Sim.new_lock sim "t" in
  let inside = ref 0 and max_inside = ref 0 and count = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 50 do
             Sim.acquire lock;
             incr inside;
             if !inside > !max_inside then max_inside := !inside;
             Sim.work 10;
             incr count;
             decr inside;
             Sim.release lock
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "never two holders" 1 !max_inside;
  Alcotest.(check int) "all sections ran" 200 !count

let test_ticket_lock_fifo () =
  (* Three contenders arrive in a known order; with ticket locks they must
     enter in exactly that order. *)
  let sim = Sim.create ~cost:Cost_model.uniform_memory ~lock_kind:Sim.Ticket ~nprocs:3 () in
  let lock = Sim.new_lock sim "t" in
  let order = ref [] in
  for i = 0 to 2 do
    ignore
      (Sim.spawn sim (fun () ->
           Sim.work (10 * (i + 1));
           (* staggered arrival: 10, 20, 30 *)
           Sim.acquire lock;
           order := i :: !order;
           Sim.work 500;
           (* hold long enough that all wait *)
           Sim.release lock))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO entry order" [ 0; 1; 2 ] (List.rev !order)

let test_release_by_non_holder_rejected () =
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let lock = Sim.new_lock sim "l" in
  let failed = ref false in
  ignore
    (Sim.spawn sim (fun () ->
         try Sim.release lock with
         | Invalid_argument _ -> failed := true));
  Sim.run sim;
  Alcotest.(check bool) "release rejected" true !failed

let test_barrier_synchronises () =
  let sim = Sim.create ~cost:um ~nprocs:4 () in
  let b = Sim.new_barrier sim ~parties:4 in
  let before = ref 0 and wrong = ref false in
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim (fun () ->
           Sim.work ((i + 1) * 100);
           incr before;
           Sim.barrier_wait b;
           if !before <> 4 then wrong := true))
  done;
  Sim.run sim;
  Alcotest.(check bool) "no thread passed early" false !wrong

let test_barrier_reusable () =
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let b = Sim.new_barrier sim ~parties:2 in
  let phases = ref [] in
  for i = 0 to 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for phase = 1 to 3 do
             Sim.work (100 * (i + 1));
             Sim.barrier_wait b;
             if i = 0 then phases := phase :: !phases
           done))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "three phases" [ 3; 2; 1 ] !phases

let test_deadlock_detected () =
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore (Sim.spawn sim (fun () -> Sim.barrier_wait b));
  Alcotest.check_raises "deadlock"
    (Sim.Deadlock "1 thread(s) cannot progress: tid 0 (proc 0) blocked on a barrier") (fun () ->
      Sim.run sim)

(* Satellite: the enriched Deadlock message names the lock, its current
   holder (tid and processor), and each blocked waiter. Classic AB-BA:
   spin locks never park, so this is caught by the spin-streak progress
   scan rather than empty run queues. *)
let test_deadlock_names_holder () =
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let la = Sim.new_lock sim "A" and lb = Sim.new_lock sim "B" in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         Sim.acquire la;
         Sim.work 500;
         Sim.acquire lb;
         Sim.release lb;
         Sim.release la));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.acquire lb;
         Sim.work 500;
         Sim.acquire la;
         Sim.release la;
         Sim.release lb));
  match Sim.run sim with
  | () -> Alcotest.fail "AB-BA deadlock not detected"
  | exception Sim.Deadlock msg ->
    let expect =
      "2 thread(s) cannot progress: "
      ^ "tid 0 (proc 0) waits for lock \"B\" held by tid 1 (proc 1); "
      ^ "tid 1 (proc 1) waits for lock \"A\" held by tid 0 (proc 0)"
    in
    Alcotest.(check string) "enriched deadlock message" expect msg

let test_determinism () =
  let trace () =
    let sim = Sim.create ~nprocs:3 () in
    let lock = Sim.new_lock sim "l" in
    let log = Buffer.create 64 in
    for i = 0 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 20 do
               Sim.acquire lock;
               Buffer.add_string log (string_of_int i);
               Sim.work (10 + i);
               Sim.release lock
             done))
    done;
    Sim.run sim;
    (Buffer.contents log, Sim.total_cycles sim)
  in
  let a = trace () and b = trace () in
  Alcotest.(check (pair string int)) "identical runs" a b

let test_memory_costs_charged () =
  let sim = Sim.create ~nprocs:1 () in
  ignore
    (Sim.spawn sim (fun () ->
         Sim.write ~addr:4096 ~len:8;
         (* cold miss *)
         Sim.write ~addr:4096 ~len:8 (* hit *)));
  Sim.run sim;
  let c = Cost_model.default in
  Alcotest.(check int) "cold miss + hit" (c.cold_miss + c.cache_hit) (Sim.total_cycles sim)

(* What each atomic charges under the default costs: a load is a plain
   coherent read, and only an operation that writes adds [atomic_op]. *)
let cycles_of f =
  let t0 = Sim.now () in
  f ();
  Sim.now () - t0

let test_atomic_load_costs_a_read () =
  let c = Cost_model.default in
  let sim = Sim.create ~nprocs:2 () in
  let a = Sim.new_atomic sim "a" 0 in
  let b = Sim.new_barrier sim ~parties:2 in
  let held = ref (-1) and remote = ref (-1) in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         ignore (Sim.atomic_load a);
         held := cycles_of (fun () -> ignore (Sim.atomic_load a));
         Sim.barrier_wait b;
         Sim.atomic_store a 1;
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         Sim.barrier_wait b;
         remote := cycles_of (fun () -> ignore (Sim.atomic_load a))));
  Sim.run sim;
  Alcotest.(check int) "load of a held line: a hit" c.cache_hit !held;
  Alcotest.(check int) "load of a line just written elsewhere: the coherence miss" c.coherence_miss !remote

let test_atomic_writes_pay_atomic_op () =
  let c = Cost_model.default in
  let sim = Sim.create ~nprocs:1 () in
  let a = Sim.new_atomic sim "a" 0 in
  let costs = ref [] in
  ignore
    (Sim.spawn sim (fun () ->
         Sim.atomic_store a 0;
         let m f = cycles_of (fun () -> ignore (f ())) in
         let store = m (fun () -> Sim.atomic_store a 1) in
         let cas_ok = m (fun () -> assert (Sim.atomic_cas a ~expected:1 ~desired:2)) in
         let cas_fail = m (fun () -> assert (not (Sim.atomic_cas a ~expected:1 ~desired:3))) in
         let faa = m (fun () -> Sim.atomic_faa a 5) in
         costs := [ store; cas_ok; cas_fail; faa ]));
  Sim.run sim;
  let w = c.cache_hit + c.atomic_op in
  Alcotest.(check (list int)) "store, CAS ok, CAS failed, faa: hit + atomic_op" [ w; w; w; w ] !costs

let test_false_sharing_visible () =
  (* Two processors writing the same line ping-pong invalidations; writing
     different lines does not. *)
  let run ~same_line =
    let sim = Sim.create ~nprocs:2 () in
    for i = 0 to 1 do
      ignore
        (Sim.spawn sim (fun () ->
             let addr = if same_line then 4096 + (i * 8) else 4096 + (i * 256) in
             for _ = 1 to 100 do
               Sim.write ~addr ~len:8
             done))
    done;
    Sim.run sim;
    Cache.total_invalidations (Sim.cache sim)
  in
  Alcotest.(check bool) "same line invalidates" true (run ~same_line:true > 50);
  Alcotest.(check int) "distinct lines don't" 0 (run ~same_line:false)

let test_now_monotone () =
  let sim = Sim.create ~nprocs:1 () in
  let ok = ref true in
  ignore
    (Sim.spawn sim (fun () ->
         let prev = ref (Sim.now ()) in
         for _ = 1 to 50 do
           Sim.work 10;
           let t = Sim.now () in
           if t < !prev then ok := false;
           prev := t
         done));
  Sim.run sim;
  Alcotest.(check bool) "clock monotone" true !ok

let test_work_zero_is_noop () =
  let sim = Sim.create ~cost:um ~nprocs:1 () in
  ignore (Sim.spawn sim (fun () -> Sim.work 0));
  Sim.run sim;
  Alcotest.(check int) "no cycles" 0 (Sim.total_cycles sim)

let test_fuzzed_schedule_deterministic_per_seed () =
  let run seed =
    let sim = Sim.create ~fuzz_schedule:seed ~nprocs:3 () in
    let lock = Sim.new_lock sim "l" in
    let log = Buffer.create 64 in
    for i = 0 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 15 do
               Sim.acquire lock;
               Buffer.add_string log (string_of_int i);
               Sim.release lock
             done))
    done;
    Sim.run sim;
    Buffer.contents log
  in
  Alcotest.(check string) "same seed same schedule" (run 7) (run 7);
  (* Different seeds should (overwhelmingly) explore different orders. *)
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2 || run 3 <> run 4)

let test_fuzzed_schedule_locks_still_exclude () =
  let sim = Sim.create ~fuzz_schedule:99 ~nprocs:4 () in
  let lock = Sim.new_lock sim "l" in
  let inside = ref 0 and bad = ref false in
  for _ = 1 to 4 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 30 do
             Sim.acquire lock;
             incr inside;
             if !inside > 1 then bad := true;
             Sim.work 5;
             decr inside;
             Sim.release lock
           done))
  done;
  Sim.run sim;
  Alcotest.(check bool) "mutual exclusion preserved" false !bad

let test_page_unmap_via_platform () =
  let sim = Sim.create ~nprocs:1 () in
  let pf = Sim.platform sim in
  let remaining = ref (-1) in
  ignore
    (Sim.spawn sim (fun () ->
         let a = pf.Platform.page_map ~bytes:8192 ~align:8192 ~owner:5 in
         pf.Platform.page_unmap ~addr:a;
         remaining := pf.Platform.mapped_bytes ~owner:5));
  Sim.run sim;
  Alcotest.(check int) "released" 0 !remaining

let test_page_map_via_platform () =
  let sim = Sim.create ~nprocs:1 () in
  let pf = Sim.platform sim in
  let got = ref 0 in
  ignore
    (Sim.spawn sim (fun () ->
         let (_ : int) = pf.Platform.page_map ~bytes:8192 ~align:8192 ~owner:7 in
         got := pf.Platform.mapped_bytes ~owner:7));
  Sim.run sim;
  Alcotest.(check int) "8 KiB accounted" 8192 !got

(* --- two-tier topology and thread lifecycle --- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_topology_validated () =
  (* Shape must cover the machine exactly. *)
  expect_invalid "sockets*cores <> nprocs" (fun () -> Sim.create ~topology:(2, 3) ~nprocs:4 ());
  expect_invalid "zero sockets" (fun () -> Sim.create ~topology:(0, 4) ~nprocs:4 ());
  (* A well-formed topology is queryable after creation. *)
  let sim = Sim.create ~topology:(2, 2) ~nprocs:4 () in
  Alcotest.(check bool) "topology retained" true (Sim.topology sim <> None);
  Alcotest.(check int) "socket-major placement" 1 (Cache.socket_of (Sim.cache sim) 2)

let test_topology_charges_cross_socket () =
  (* Two procs ping-ponging one line: on the 2-socket machine every
     coherence event crosses the socket and pays the surcharge. *)
  let run topo =
    let sim =
      match topo with
      | false -> Sim.create ~nprocs:2 ()
      | true -> Sim.create ~topology:(2, 1) ~nprocs:2 ()
    in
    for _ = 0 to 1 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 50 do
               Sim.write ~addr:4096 ~len:8
             done))
    done;
    Sim.run sim;
    (Sim.total_cycles sim, Cache.total_cross_socket_events (Sim.cache sim))
  in
  let flat_cycles, flat_cross = run false in
  let numa_cycles, numa_cross = run true in
  Alcotest.(check int) "flat machine has no socket crossings" 0 flat_cross;
  Alcotest.(check bool) "socket crossings counted" true (numa_cross > 0);
  Alcotest.(check bool)
    (Printf.sprintf "2-socket (%d) costs more than flat (%d)" numa_cycles flat_cycles)
    true
    (numa_cycles > flat_cycles)

let test_spawn_at_activates_later () =
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let t0 = ref (-1) and t1 = ref (-1) in
  ignore (Sim.spawn sim (fun () -> Sim.work 100));
  ignore (Sim.spawn_at sim ~at:500 (fun () -> t0 := Sim.now ()));
  (* An idle machine jumps forward to the next pending spawn. *)
  ignore (Sim.spawn_at sim ~at:2000 (fun () -> t1 := Sim.now ()));
  Sim.run sim;
  Alcotest.(check bool) (Printf.sprintf "not before its time (%d)" !t0) true (!t0 >= 500);
  Alcotest.(check bool) (Printf.sprintf "idle jump (%d)" !t1) true (!t1 >= 2000);
  expect_invalid "negative at" (fun () ->
      let sim = Sim.create ~nprocs:1 () in
      ignore (Sim.spawn_at sim ~at:(-1) (fun () -> ())))

let test_spawn_at_order () =
  (* Deferred threads start in (at, tid) order: out-of-order start times
     are sorted, and equal ones start oldest first. All share processor 1
     while processor 0 keeps the clock moving. *)
  let sim = Sim.create ~cost:um ~nprocs:2 () in
  let started = ref [] in
  ignore (Sim.spawn sim ~proc:0 (fun () -> Sim.work 5000));
  let spawn at =
    let tid = ref (-1) in
    tid := Sim.spawn_at sim ~at ~proc:1 (fun () -> started := !tid :: !started);
    (at, !tid)
  in
  let spawned = List.map spawn [ 300; 100; 200; 100; 0; 300; 200; 100 ] in
  Sim.run sim;
  Alcotest.(check (list int))
    "start order"
    (List.map snd (List.sort compare spawned))
    (List.rev !started)

(* Host words a thunk allocates on the minor heap: deterministic, unlike
   timings, so a cost guard can be exact. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_spawn_at_cost_grows_gently () =
  (* Spawns in increasing start time, as churn waves make them. Doubling
     their number may little more than double the host allocation; a
     sorted list copied on every insert would quadruple it. *)
  let words n =
    let sim = Sim.create ~nprocs:4 () in
    minor_words (fun () ->
        for i = 1 to n do
          ignore (Sim.spawn_at sim ~at:(10 * i) (fun () -> ()))
        done)
  in
  let ratio = words 512 /. words 256 in
  Alcotest.(check bool) (Printf.sprintf "512 spawns cost %.2fx 256" ratio) true (ratio < 2.5)

let test_peak_live_threads_tracks_churn () =
  (* Overlapping waves: the second wave starts while the first is still
     working, so the peak sees both. *)
  let sim = Sim.create ~cost:um ~nprocs:4 () in
  for _ = 1 to 2 do
    ignore (Sim.spawn sim (fun () -> Sim.work 1000))
  done;
  for _ = 1 to 2 do
    ignore (Sim.spawn_at sim ~at:100 (fun () -> Sim.work 100))
  done;
  Sim.run sim;
  Alcotest.(check int) "overlapping waves peak at 4" 4 (Sim.peak_live_threads sim);
  Alcotest.(check int) "all retired" 0 (Sim.live_threads sim);
  (* Disjoint waves: the first is long gone when the second starts, so
     the peak stays at the wave size — total threads never enter it. *)
  let sim = Sim.create ~cost:um ~nprocs:4 () in
  for _ = 1 to 2 do
    ignore (Sim.spawn sim (fun () -> Sim.work 10))
  done;
  for _ = 1 to 2 do
    ignore (Sim.spawn_at sim ~at:10_000 (fun () -> Sim.work 10))
  done;
  Sim.run sim;
  Alcotest.(check int) "disjoint waves peak at 2" 2 (Sim.peak_live_threads sim)

let () =
  Alcotest.run "sim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "single thread work" `Quick test_single_thread_work;
          Alcotest.test_case "parallel overlap" `Quick test_parallel_work_overlaps;
          Alcotest.test_case "one proc serialises" `Quick test_two_threads_one_proc_serialise;
          Alcotest.test_case "self ids" `Quick test_self_ids;
          Alcotest.test_case "pinned spawn" `Quick test_spawn_pinned;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "co-located threads run to completion" `Quick test_colocated_threads_run_to_completion;
          Alcotest.test_case "fuzz interleaves co-located threads" `Quick test_fuzzed_interleaves_colocated_threads;
          Alcotest.test_case "co-located waiter spins once per turn" `Quick test_colocated_waiter_spins_once_per_turn;
          Alcotest.test_case "polling thread yields at slice end" `Quick test_polling_thread_yields_at_slice_end;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "contention costs" `Quick test_lock_contention_costs_cycles;
          Alcotest.test_case "bad release" `Quick test_release_by_non_holder_rejected;
          Alcotest.test_case "ticket mutual exclusion" `Quick test_ticket_lock_mutual_exclusion;
          Alcotest.test_case "ticket FIFO" `Quick test_ticket_lock_fifo;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "synchronises" `Quick test_barrier_synchronises;
          Alcotest.test_case "reusable" `Quick test_barrier_reusable;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "deadlock names holder" `Quick test_deadlock_names_holder;
        ] );
      ( "memory",
        [
          Alcotest.test_case "costs charged" `Quick test_memory_costs_charged;
          Alcotest.test_case "atomic load costs a read" `Quick test_atomic_load_costs_a_read;
          Alcotest.test_case "atomic writes pay atomic_op" `Quick test_atomic_writes_pay_atomic_op;
          Alcotest.test_case "false sharing visible" `Quick test_false_sharing_visible;
          Alcotest.test_case "page map via platform" `Quick test_page_map_via_platform;
          Alcotest.test_case "page unmap via platform" `Quick test_page_unmap_via_platform;
          Alcotest.test_case "now monotone" `Quick test_now_monotone;
          Alcotest.test_case "work zero" `Quick test_work_zero_is_noop;
          Alcotest.test_case "fuzz deterministic per seed" `Quick test_fuzzed_schedule_deterministic_per_seed;
          Alcotest.test_case "fuzz keeps exclusion" `Quick test_fuzzed_schedule_locks_still_exclude;
        ] );
      ( "topology & lifecycle",
        [
          Alcotest.test_case "topology validated" `Quick test_topology_validated;
          Alcotest.test_case "cross-socket charged" `Quick test_topology_charges_cross_socket;
          Alcotest.test_case "spawn_at activates later" `Quick test_spawn_at_activates_later;
          Alcotest.test_case "peak live threads" `Quick test_peak_live_threads_tracks_churn;
          Alcotest.test_case "spawn_at order" `Quick test_spawn_at_order;
          Alcotest.test_case "spawn_at cost" `Quick test_spawn_at_cost_grows_gently;
        ] );
    ]
