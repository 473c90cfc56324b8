(* The Hoard allocator: API behaviour, the emptiness invariant, superblock
   transfer, blowup bounds and multiprocessor operation on the simulator. *)

let cfg = Hoard_config.default

let mk () =
  let pf = Platform.host () in
  let h = Hoard.create pf in
  (h, Hoard.allocator h)

let test_malloc_returns_usable_block () =
  let _, a = mk () in
  let p = a.Alloc_intf.malloc 100 in
  Alcotest.(check bool) "usable >= request" true (a.Alloc_intf.usable_size p >= 100);
  a.Alloc_intf.free p;
  a.Alloc_intf.check ()

let test_live_blocks_distinct () =
  let _, a = mk () in
  let ps = List.init 500 (fun i -> a.Alloc_intf.malloc (8 + (i mod 200))) in
  let sorted = List.sort compare ps in
  let rec distinct = function
    | x :: (y :: _ as rest) -> x <> y && distinct rest
    | _ -> true
  in
  Alcotest.(check bool) "distinct addresses" true (distinct sorted);
  List.iter a.Alloc_intf.free ps;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_malloc_zero_rejected () =
  let _, a = mk () in
  Alcotest.check_raises "size 0" (Invalid_argument "Hoard.malloc: size must be positive") (fun () ->
      ignore (a.Alloc_intf.malloc 0))

let test_free_foreign_rejected () =
  let _, a = mk () in
  ignore (a.Alloc_intf.malloc 64);
  Alcotest.check_raises "foreign" (Invalid_argument "Hoard.free: foreign pointer") (fun () ->
      a.Alloc_intf.free 0xDEAD000)

let test_double_free_detected () =
  let _, a = mk () in
  let p = a.Alloc_intf.malloc 64 in
  a.Alloc_intf.free p;
  Alcotest.check_raises "double free" (Failure "Superblock.free_block: double free") (fun () ->
      a.Alloc_intf.free p)

let test_large_objects () =
  let _, a = mk () in
  let threshold = Hoard_config.max_small cfg in
  let p = a.Alloc_intf.malloc (threshold + 1) in
  Alcotest.(check bool) "usable" true (a.Alloc_intf.usable_size p >= threshold + 1);
  let q = a.Alloc_intf.malloc (10 * 8192) in
  a.Alloc_intf.free p;
  a.Alloc_intf.free q;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "live zero" 0 s.Alloc_stats.live_bytes;
  Alcotest.(check int) "held zero (large released)" 0 s.Alloc_stats.held_bytes

let test_boundary_sizes () =
  let _, a = mk () in
  let threshold = Hoard_config.max_small cfg in
  List.iter
    (fun size ->
      let p = a.Alloc_intf.malloc size in
      Alcotest.(check bool) (Printf.sprintf "size %d" size) true (a.Alloc_intf.usable_size p >= size);
      a.Alloc_intf.free p;
      a.Alloc_intf.check ())
    [ 1; 7; 8; 9; 63; 64; 65; threshold - 1; threshold; threshold + 1; 8192; 8193 ]

let test_memory_reused_after_free () =
  let _, a = mk () in
  let p1 = a.Alloc_intf.malloc 64 in
  a.Alloc_intf.free p1;
  let p2 = a.Alloc_intf.malloc 64 in
  Alcotest.(check int) "same block reused (LIFO)" p1 p2

let test_empty_superblocks_released_to_os () =
  let pf = Platform.host () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  (* Fill many superblocks, then free everything: held memory must shrink
     to at most the release threshold (+1 in the local heap). *)
  let ps = List.init 5000 (fun _ -> a.Alloc_intf.malloc 64) in
  let peak = (a.Alloc_intf.stats ()).Alloc_stats.held_bytes in
  List.iter a.Alloc_intf.free ps;
  let after = (a.Alloc_intf.stats ()).Alloc_stats.held_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "held shrank (%d -> %d)" peak after)
    true
    (after <= (cfg.Hoard_config.release_threshold + cfg.Hoard_config.slack + 2) * cfg.Hoard_config.sb_size);
  Alcotest.(check bool) "unmaps happened" true ((a.Alloc_intf.stats ()).Alloc_stats.os_unmaps > 0);
  a.Alloc_intf.check ()

let test_invariant_after_frees () =
  let pf = Platform.host () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let rng = Rng.create 99 in
  let live = ref [] in
  for _ = 1 to 3000 do
    if Rng.bool rng || !live = [] then live := a.Alloc_intf.malloc (Rng.int_in rng 8 512) :: !live
    else begin
      let idx = Rng.int rng (List.length !live) in
      let p = List.nth !live idx in
      live := List.filteri (fun i _ -> i <> idx) !live;
      let u_before = (Hoard.heap_info h 1).Hoard.u_bytes in
      let ok_before = Hoard.invariant_holds h ~heap_id:1 in
      a.Alloc_intf.free p;
      (* The paper's inductive guarantee: if the emptiness invariant held
         before a free into a heap, moving one f-empty superblock restores
         it afterwards. (A malloc that maps a fresh superblock may break
         it; frees then converge it back, one transfer at a time.) Only
         check heap 1 when the free actually debited it. *)
      if ok_before && (Hoard.heap_info h 1).Hoard.u_bytes < u_before then
        Alcotest.(check bool) "invariant preserved by free" true (Hoard.invariant_holds h ~heap_id:1)
    end
  done;
  a.Alloc_intf.check ()

let test_transfer_to_global_happens () =
  let pf = Platform.host () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let ps = List.init 4000 (fun _ -> a.Alloc_intf.malloc 32) in
  List.iter a.Alloc_intf.free ps;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "superblocks crossed to global" true (s.Alloc_stats.sb_to_global > 0);
  ignore h

let test_superblocks_return_from_global () =
  let pf = Platform.host () in
  let h = Hoard.create ~config:{ cfg with Hoard_config.release_to_os = false } pf in
  let a = Hoard.allocator h in
  let ps = List.init 4000 (fun _ -> a.Alloc_intf.malloc 32) in
  List.iter a.Alloc_intf.free ps;
  (* Everything sits in the global heap now; allocating again must pull
     superblocks back rather than mapping new memory. *)
  let maps_before = (a.Alloc_intf.stats ()).Alloc_stats.os_maps in
  let ps = List.init 4000 (fun _ -> a.Alloc_intf.malloc 32) in
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "no new OS memory" maps_before s.Alloc_stats.os_maps;
  Alcotest.(check bool) "transfers from global" true (s.Alloc_stats.sb_from_global > 0);
  List.iter a.Alloc_intf.free ps;
  a.Alloc_intf.check ()

let test_blowup_bounded_producer_consumer () =
  (* The paper's adversary: producer allocates a batch, consumer frees it,
     repeatedly. Hoard's held memory must stay O(U + P), not grow with the
     number of rounds. *)
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let rounds = 50 and batch = 200 in
  let mailbox = ref [] in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to rounds do
           mailbox := List.init batch (fun _ -> a.Alloc_intf.malloc 64);
           Sim.barrier_wait b;
           (* consumer frees *)
           Sim.barrier_wait b
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to rounds do
           Sim.barrier_wait b;
           List.iter a.Alloc_intf.free !mailbox;
           mailbox := [];
           Sim.barrier_wait b
         done));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  let u_peak = s.Alloc_stats.peak_live_bytes in
  let a_peak = s.Alloc_stats.peak_held_bytes in
  (* Bound: (1/(1-f)) * U + slack for partially-filled superblocks per
     heap/class in play, far below the unbounded growth of pure-private. *)
  let s_bytes = cfg.Hoard_config.sb_size in
  let slack_sbs = (cfg.Hoard_config.slack * 3) + cfg.Hoard_config.release_threshold + 4 in
  let bound = (2 * u_peak) + (slack_sbs * s_bytes) in
  Alcotest.(check bool)
    (Printf.sprintf "A(%d) <= bound(%d), U=%d" a_peak bound u_peak)
    true (a_peak <= bound);
  Alcotest.(check int) "all freed" 0 s.Alloc_stats.live_bytes;
  a.Alloc_intf.check ()

let test_remote_free_returns_to_owner () =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let ps = ref [] in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         ps := List.init 100 (fun _ -> a.Alloc_intf.malloc 64);
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         List.iter a.Alloc_intf.free !ps));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "remote frees recorded" true (s.Alloc_stats.remote_frees > 0);
  Alcotest.(check int) "nothing live" 0 s.Alloc_stats.live_bytes;
  a.Alloc_intf.check ()

let test_heaps_info () =
  let pf = Platform.host ~nprocs:1 () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  Alcotest.(check int) "one per-proc heap" 1 (Hoard.nheaps h);
  let p = a.Alloc_intf.malloc 64 in
  let info = Hoard.heap_info h 1 in
  Alcotest.(check int) "u = one block" 64 info.Hoard.u_bytes;
  Alcotest.(check int) "a = one superblock" cfg.Hoard_config.sb_size info.Hoard.a_bytes;
  a.Alloc_intf.free p

let test_nheaps_override () =
  let pf = Platform.host ~nprocs:4 () in
  let h = Hoard.create ~config:{ cfg with Hoard_config.nheaps = Some 2 } pf in
  Alcotest.(check int) "two heaps" 2 (Hoard.nheaps h)

let test_stats_requested_bytes () =
  let _, a = mk () in
  let p = a.Alloc_intf.malloc 100 in
  let q = a.Alloc_intf.malloc 200 in
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "requested" 300 s.Alloc_stats.bytes_requested;
  Alcotest.(check int) "mallocs" 2 s.Alloc_stats.mallocs;
  a.Alloc_intf.free p;
  a.Alloc_intf.free q

(* Property: random alloc/free sequences keep the allocator structurally
   sound and the address space consistent with a shadow model. *)
let test_random_ops_sound =
  QCheck.Test.make ~name:"Hoard sound under random op sequences" ~count:30
    QCheck.(list (pair (int_range 1 5000) bool))
    (fun ops ->
      let pf = Platform.host () in
      let h = Hoard.create pf in
      let a = Hoard.allocator h in
      let live = ref [] in
      List.iter
        (fun (size, do_alloc) ->
          if do_alloc || !live = [] then begin
            let p = a.Alloc_intf.malloc size in
            if a.Alloc_intf.usable_size p < size then failwith "usable too small";
            live := (p, size) :: !live
          end
          else begin
            match !live with
            | (p, _) :: rest ->
              a.Alloc_intf.free p;
              live := rest
            | [] -> ()
          end)
        ops;
      a.Alloc_intf.check ();
      (* Live blocks must not overlap. *)
      let spans = List.map (fun (p, _) -> (p, a.Alloc_intf.usable_size p)) !live in
      let sorted = List.sort compare spans in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && disjoint rest
        | _ -> true
      in
      List.iter (fun (p, _) -> a.Alloc_intf.free p) !live;
      a.Alloc_intf.check ();
      disjoint sorted && (a.Alloc_intf.stats ()).Alloc_stats.live_bytes = 0)

let test_tiny_superblocks () =
  (* S = 4096 (one page): exercises the boundary where few blocks fit per
     superblock and large objects begin at 2 KiB. *)
  let config = { cfg with Hoard_config.sb_size = 4096 } in
  let pf = Platform.host () in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let ps = List.init 500 (fun i -> a.Alloc_intf.malloc (1 + (i mod 3000))) in
  a.Alloc_intf.check ();
  List.iter a.Alloc_intf.free ps;
  a.Alloc_intf.check ();
  Alcotest.(check int) "clean" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_exact_superblock_fill () =
  (* Fill size class 64 across exactly several superblocks and free in
     allocation order (anti-LIFO), stressing group migration. *)
  let pf = Platform.host () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let per_sb = (8192 - 64) / 64 in
  let ps = Array.init (3 * per_sb) (fun _ -> a.Alloc_intf.malloc 64) in
  a.Alloc_intf.check ();
  Array.iter a.Alloc_intf.free ps;
  a.Alloc_intf.check ();
  Alcotest.(check int) "clean" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_sim_random_stress =
  QCheck.Test.make ~name:"hoard sound under random multiprocessor interleavings" ~count:10
    QCheck.(pair (int_range 2 6) (int_range 1 500))
    (fun (nprocs, seed) ->
      let nprocs = max 2 (min 6 nprocs) and seed = max 1 seed in
      let sim = Sim.create ~nprocs () in
      let pf = Sim.platform sim in
      let h = Hoard.create pf in
      let a = Hoard.allocator h in
      (* Shared mailbox: threads sometimes free blocks allocated by
         others (racy by design; the mailbox is plain shared state whose
         accesses are atomic at effect granularity). *)
      let mailbox = ref [] in
      let barrier = Sim.new_barrier sim ~parties:nprocs in
      for t = 0 to nprocs - 1 do
        ignore
          (Sim.spawn sim (fun () ->
               let rng = Rng.create (seed + (t * 7919)) in
               let mine = ref [] in
               for _ = 1 to 200 do
                 match Rng.int rng 4 with
                 | 0 | 1 -> mine := a.Alloc_intf.malloc (Rng.int_in rng 1 5000) :: !mine
                 | 2 -> (
                   match !mine with
                   | p :: rest ->
                     if Rng.bool rng then a.Alloc_intf.free p
                     else mailbox := p :: !mailbox;
                     mine := rest
                   | [] -> ())
                 | _ -> (
                   match !mailbox with
                   | p :: rest ->
                     mailbox := rest;
                     a.Alloc_intf.free p
                   | [] -> ())
               done;
               List.iter a.Alloc_intf.free !mine;
               (* Everyone done churning: thread 0 drains what remains. *)
               Sim.barrier_wait barrier;
               if t = 0 then begin
                 List.iter a.Alloc_intf.free !mailbox;
                 mailbox := []
               end))
      done;
      Sim.run sim;
      a.Alloc_intf.check ();
      (a.Alloc_intf.stats ()).Alloc_stats.live_bytes = 0)

let test_fuzzed_schedules_sound =
  QCheck.Test.make ~name:"hoard sound under fuzzed schedules" ~count:15 (QCheck.int_range 1 10_000)
    (fun seed ->
      let sim = Sim.create ~fuzz_schedule:seed ~nprocs:4 () in
      let pf = Sim.platform sim in
      let h = Hoard.create pf in
      let a = Hoard.allocator h in
      let barrier = Sim.new_barrier sim ~parties:4 in
      let box = ref [] in
      for t = 0 to 3 do
        ignore
          (Sim.spawn sim (fun () ->
               let rng = Rng.create (seed + t) in
               let mine = ref [] in
               for _ = 1 to 150 do
                 if Rng.bool rng then mine := a.Alloc_intf.malloc (Rng.int_in rng 8 600) :: !mine
                 else begin
                   match !mine with
                   | p :: rest ->
                     if Rng.bool rng then a.Alloc_intf.free p else box := p :: !box;
                     mine := rest
                   | [] -> ()
                 end
               done;
               List.iter a.Alloc_intf.free !mine;
               Sim.barrier_wait barrier;
               if t = 0 then begin
                 List.iter a.Alloc_intf.free !box;
                 box := []
               end))
      done;
      Sim.run sim;
      a.Alloc_intf.check ();
      (a.Alloc_intf.stats ()).Alloc_stats.live_bytes = 0)

let test_assign_by_tid_spreads_heaps () =
  (* 8 threads on 2 processors: by-proc mapping uses 2 heaps, tid hashing
     with 8 heaps uses more of them. *)
  let used_heaps config =
    let sim = Sim.create ~nprocs:2 () in
    let pf = Sim.platform sim in
    let h = Hoard.create ~config pf in
    let a = Hoard.allocator h in
    for _ = 0 to 7 do
      ignore
        (Sim.spawn sim (fun () ->
             let ps = List.init 40 (fun _ -> a.Alloc_intf.malloc 64) in
             List.iter a.Alloc_intf.free ps))
    done;
    Sim.run sim;
    let used = ref 0 in
    for i = 1 to Hoard.nheaps h do
      let info = Hoard.heap_info h i in
      if info.Hoard.a_bytes > 0 || info.Hoard.superblocks > 0 then incr used
    done;
    (* Heaps that returned everything to the global heap still count if
       they ever held memory; approximate via stats: count heaps with any
       residual superblocks, falling back to >= 1. *)
    max 1 !used
  in
  let by_proc = used_heaps { cfg with Hoard_config.nheaps = Some 8 } in
  let by_tid = used_heaps { cfg with Hoard_config.nheaps = Some 8; assign_by_tid = true } in
  Alcotest.(check bool)
    (Printf.sprintf "tid hashing uses more heaps (%d > %d)" by_tid by_proc)
    true (by_tid > by_proc)

let test_heap_info_reconciles_with_stats () =
  let pf = Platform.host () in
  let h = Hoard.create ~config:{ cfg with Hoard_config.release_to_os = false } pf in
  let a = Hoard.allocator h in
  let rng = Rng.create 2026 in
  let live = ref [] in
  for _ = 1 to 2000 do
    if Rng.bool rng || !live = [] then live := a.Alloc_intf.malloc (Rng.int_in rng 8 2000) :: !live
    else begin
      match !live with
      | p :: rest ->
        a.Alloc_intf.free p;
        live := rest
      | [] -> ()
    end
  done;
  (* Sum of per-heap holdings must equal the allocator's held bytes (no
     large objects in this size range beyond 2000 < S/2? sizes up to 2000
     are small; keep an eye on the large path via its own accounting). *)
  let sum_a = ref 0 and sum_u = ref 0 in
  for i = 0 to Hoard.nheaps h do
    let info = Hoard.heap_info h i in
    sum_a := !sum_a + info.Hoard.a_bytes;
    sum_u := !sum_u + info.Hoard.u_bytes
  done;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "sum of heap a = held" s.Alloc_stats.held_bytes !sum_a;
  Alcotest.(check int) "sum of heap u = live" s.Alloc_stats.live_bytes !sum_u;
  List.iter a.Alloc_intf.free !live;
  a.Alloc_intf.check ()

let test_usable_size_matches_class () =
  let pf = Platform.host () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let classes = Size_class.create ~max_small:(Hoard_config.max_small cfg) () in
  for size = 1 to 600 do
    let p = a.Alloc_intf.malloc size in
    let expected = Size_class.size_of_class classes (Size_class.class_of_size classes size) in
    Alcotest.(check int) (Printf.sprintf "usable for %d" size) expected (a.Alloc_intf.usable_size p);
    a.Alloc_intf.free p
  done

(* --- the lock-free front end: per-thread caches + remote-free queues --- *)

let mk_fe ?(k = 8) () =
  let pf = Platform.host () in
  let h = Hoard.create ~config:{ cfg with Hoard_config.front_end = k } pf in
  (h, Hoard.allocator h)

let test_front_end_off_by_default () =
  (* Paper-fidelity experiments must never pick the front end up by
     accident. *)
  Alcotest.(check int) "default front_end" 0 Hoard_config.default.Hoard_config.front_end

let test_cache_bounded_and_flushed () =
  let k = 8 in
  let h, a = mk_fe ~k () in
  (* Hammer a single size class far past K: the cache must stay bounded,
     evicting overflow back through the heap. *)
  let ps = List.init 300 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  List.iter
    (fun (tid, counts) ->
      Array.iteri
        (fun c n ->
          Alcotest.(check bool) (Printf.sprintf "tid %d class %d: %d <= K" tid c n) true (n <= k))
        counts)
    (Hoard.cache_counts h);
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "cache hits happened" true (s.Alloc_stats.cache_hits > 0);
  Alcotest.(check bool) "overflow was flushed" true (s.Alloc_stats.cache_flushes > 0);
  Hoard.flush_caches h;
  Alcotest.(check bool) "caches empty after flush" true
    (List.for_all (fun (_, counts) -> Array.for_all (( = ) 0) counts) (Hoard.cache_counts h));
  Alcotest.(check bool) "queues empty after flush" true
    (Array.for_all (( = ) 0) (Hoard.remote_queue_lengths h));
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  a.Alloc_intf.check ()

let test_check_exact_with_caches_populated () =
  let h, a = mk_fe () in
  let ps = List.init 400 (fun i -> a.Alloc_intf.malloc (8 + (i mod 900))) in
  (* Caches hold fill surplus: check must reconcile exactly anyway. *)
  a.Alloc_intf.check ();
  List.iter a.Alloc_intf.free ps;
  (* Caches now hold freed blocks, still charged to their heaps. *)
  a.Alloc_intf.check ();
  Hoard.flush_caches h;
  a.Alloc_intf.check ();
  Alcotest.(check int) "live zero once flushed" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_double_free_cached_detected () =
  let _, a = mk_fe () in
  let p = a.Alloc_intf.malloc 64 in
  a.Alloc_intf.free p;
  Alcotest.check_raises "double free while cached" (Failure "Hoard.free: double free (cached)")
    (fun () -> a.Alloc_intf.free p)

let test_remote_queue_drain_reuses_memory () =
  (* Producer on proc 0, consumer on proc 1: the consumer's frees land on
     the producer heap's remote-free queue; the producer's next slow path
     drains them, so re-allocating must not map new OS memory. *)
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let config = { cfg with Hoard_config.front_end = 8; release_to_os = false } in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let ps = ref [] in
  let maps = ref (-1, -1) in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         ps := List.init 200 (fun _ -> a.Alloc_intf.malloc 64);
         Sim.barrier_wait b;
         (* consumer frees and flushes *)
         Sim.barrier_wait b;
         let before = (a.Alloc_intf.stats ()).Alloc_stats.os_maps in
         let qs = List.init 200 (fun _ -> a.Alloc_intf.malloc 64) in
         maps := (before, (a.Alloc_intf.stats ()).Alloc_stats.os_maps);
         List.iter a.Alloc_intf.free qs));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         List.iter a.Alloc_intf.free !ps;
         (* Push everything out of this thread's cache onto the owners'
            remote-free queues before signalling the producer. *)
         a.Alloc_intf.flush ();
         Sim.barrier_wait b));
  Sim.run sim;
  let before, after = !maps in
  Alcotest.(check int) "no new OS maps after drain" before after;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "remote enqueues recorded" true (s.Alloc_stats.remote_enqueues > 0);
  Alcotest.(check bool) "remote drains recorded" true (s.Alloc_stats.remote_drains > 0);
  Hoard.flush_caches h;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_front_end_cuts_lock_traffic () =
  (* The PR's acceptance bar: on larson and threadtest at 4 simulated
     processors, the front end takes >= 5x fewer heap-lock acquisitions
     per malloc/free pair than the paper-exact configuration. *)
  let nprocs = 4 in
  let acqs_per_pair ~front_end name =
    let w =
      match Experiments.workload name Experiments.Quick with
      | Some w -> w
      | None -> Alcotest.failf "unknown workload %s" name
    in
    let config = { cfg with Hoard_config.front_end } in
    let r = Runner.run (Runner.spec w (Hoard.factory ~config ()) ~nprocs) in
    let acqs =
      List.fold_left
        (fun acc (lname, n, _) ->
          if String.starts_with ~prefix:"hoard.heap" lname then acc + n else acc)
        0 r.Runner.r_lock_stats
    in
    let pairs = r.Runner.r_stats.Alloc_stats.mallocs + r.Runner.r_stats.Alloc_stats.frees in
    float_of_int acqs /. float_of_int (max 1 pairs)
  in
  List.iter
    (fun name ->
      let base = acqs_per_pair ~front_end:0 name in
      let fe = acqs_per_pair ~front_end:32 name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f acqs/pair with front end vs %.4f without (>= 5x)" name fe base)
        true (base >= 5.0 *. fe))
    [ "larson"; "threadtest" ]

let test_cross_thread_double_free_cached () =
  (* The regression this PR fixes: a freed block sitting in thread 0's
     front-end cache is bitmap-live, so a double free of the same address
     from ANOTHER thread used to slip past the old guard (which only
     consulted the caller's own cache) and hand the block out twice. The
     per-block custody bit must reject it from any thread. *)
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let h = Hoard.create ~config:{ cfg with Hoard_config.front_end = 8 } pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:2 in
  let target = ref 0 in
  let second = ref "no exception" in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         let p = a.Alloc_intf.malloc 64 in
         target := p;
         a.Alloc_intf.free p;
         (* p is now cached (and still bitmap-live) in this thread. *)
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         match a.Alloc_intf.free !target with
         | () -> ()
         | exception Failure msg -> second := msg));
  Sim.run sim;
  Alcotest.(check string) "cross-thread double free rejected" "Hoard.free: double free (cached)" !second;
  Hoard.flush_caches h;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_recycled_tid_reflushes_on_exit () =
  (* Thread pools hand the same tid to successive workers. The exit flush
     used to be registered only when the cache was CREATED, on the domain
     alive at that moment — a later domain adopting the tid exited without
     flushing, leaking its cached blocks. Force the recycling by pinning
     self_tid, and demand the second domain's exit drains the cache too. *)
  let pf0 = Platform.host () in
  let pf = { pf0 with Platform.self_tid = (fun () -> 7) } in
  let h = Hoard.create ~config:{ cfg with Hoard_config.front_end = 8 } pf in
  let a = Hoard.allocator h in
  let worker () =
    let p = a.Alloc_intf.malloc 64 in
    a.Alloc_intf.free p
    (* p stays in tid 7's cache unless this domain's exit flushes it. *)
  in
  (* The exit flush surrenders cached blocks to the owning heap's remote
     queue, where they stay charged until a drain — so the observable is
     the cache itself, not live_bytes. *)
  let cache_empty () =
    List.for_all (fun (_, counts) -> Array.for_all (( = ) 0) counts) (Hoard.cache_counts h)
  in
  Domain.join (Domain.spawn worker);
  Alcotest.(check bool) "first worker's exit flushed its cache" true (cache_empty ());
  Domain.join (Domain.spawn worker);
  Alcotest.(check bool) "second worker (recycled tid) flushed too" true (cache_empty ());
  Hoard.flush_caches h;
  Alcotest.(check int) "every block recovered from the queues" 0
    (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  a.Alloc_intf.check ();
  Platform.host_release pf0

let test_remote_forward_bounded () =
  (* Drain forwarding: blocks queued on a heap whose superblock then
     migrates are re-forwarded to the new owner's queue — boundedly.
     Choreography: t1 frees t0's blocks so two of SB1's land on heap 1's
     remote queue (cap 2); t0 then empties the heap far enough that SB1
     (2 pending blocks) transfers to the global heap, and its next drain
     forwards the stale entries to heap 0's queue. *)
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let obs = Obs.create () in
  let config =
    {
      cfg with
      Hoard_config.sb_size = 4096;
      nheaps = Some 2;
      slack = 0;
      release_to_os = false;
      front_end = 8;
      remote_queue_cap = 2;
    }
  in
  let h = Hoard.create ~config ~obs pf in
  let a = Hoard.allocator h in
  let sb_size = config.Hoard_config.sb_size in
  let b = Sim.new_barrier sim ~parties:2 in
  let groups = ref [] in
  let held = ref [] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         (* Fill three superblocks of one class on heap 1. *)
         let ps = Array.init 200 (fun _ -> a.Alloc_intf.malloc 64) in
         let by_base = Hashtbl.create 8 in
         Array.iter
           (fun p ->
             let base = p - (p mod sb_size) in
             Hashtbl.replace by_base base (p :: (Option.value (Hashtbl.find_opt by_base base) ~default:[])))
           ps;
         groups := Hashtbl.fold (fun _ g acc -> g :: acc) by_base [] |> List.sort (fun x y -> compare (List.length y) (List.length x));
         Sim.barrier_wait b;
         (* t1 queued two SB1 blocks on our heap. Free everything except
            SB1's queued blocks and three SB3 keepers, then flush: the
            trims exile SB1 (2 pending < SB3's 3 live, and SB3 stays as
            the class's protected last), and the flush's own drain meets
            the migrated entries and must forward them. *)
         Sim.barrier_wait b;
         (match !groups with
          | sb1 :: rest ->
            let followers = List.concat rest in
            let keep, free_now_ =
              match followers with
              | k1 :: k2 :: k3 :: tl -> ([ k1; k2; k3 ], tl)
              | _ -> Alcotest.fail "remote-forward: not enough blocks"
            in
            held := keep;
            List.iter a.Alloc_intf.free (List.filteri (fun i _ -> i >= 12) sb1);
            List.iter a.Alloc_intf.free free_now_;
            a.Alloc_intf.flush ();
            (* The forwarding under test has happened; release the keepers
               from inside the sim (the allocator is sim-backed). *)
            List.iter a.Alloc_intf.free !held;
            a.Alloc_intf.flush ()
          | [] -> Alcotest.fail "remote-forward: no superblocks")));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         (* Free 12 SB1 blocks from the wrong thread: 8 fill this thread's
            cache, the eviction offers 4 to heap 1's queue (cap 2), the
            flush pushes the rest through the locked path. *)
         (match !groups with
          | sb1 :: _ -> List.iter a.Alloc_intf.free (List.filteri (fun i _ -> i < 12) sb1)
          | [] -> Alcotest.fail "remote-forward: no superblocks");
         a.Alloc_intf.flush ();
         Sim.barrier_wait b));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "forwards recorded (%d)" s.Alloc_stats.remote_forwards)
    true (s.Alloc_stats.remote_forwards > 0);
  let fwd_events =
    List.fold_left (fun acc (_, r) -> acc + Event_ring.recorded_kind r Event_ring.Remote_forward) 0 (Obs.rings obs)
  in
  Alcotest.(check int) "one event per forwarded block" s.Alloc_stats.remote_forwards fwd_events;
  (* The bound the fix enforces: no queue ever exceeds 2x its cap. *)
  Array.iteri
    (fun id len ->
      Alcotest.(check bool)
        (Printf.sprintf "queue %d: %d <= 2*cap" id len)
        true
        (len <= 2 * config.Hoard_config.remote_queue_cap))
    (Hoard.remote_queue_lengths h);
  Hoard.flush_caches h;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

(* --- the lock-free global heap (Global_index) --- *)

let test_global_locked_by_default () =
  Alcotest.(check bool) "default global mode" true
    (Hoard_config.default.Hoard_config.global = Hoard_config.Locked);
  let _, a = mk () in
  let ps = List.init 3000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "no index pushes" 0 s.Alloc_stats.global_pushes;
  Alcotest.(check int) "no index pops" 0 s.Alloc_stats.global_pops

let test_global_lockfree_roundtrip () =
  (* Exiled superblocks take the publish route into the index; the next
     refill claims them back (reinitialised to the needed class) without
     ever touching a heap-0 lock. *)
  let pf = Platform.host () in
  let config =
    { cfg with Hoard_config.global = Hoard_config.Lockfree; slack = 0; release_to_os = false }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let ps = List.init 3000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "exiles published to the index" true (s.Alloc_stats.global_pushes > 0);
  Alcotest.(check bool) "index holds the exiles" true
    ((Hoard.heap_info h 0).Hoard.superblocks > 0);
  a.Alloc_intf.check ();
  (* A different size class: the claim must reinitialise an empty member. *)
  let qs = List.init 200 (fun _ -> a.Alloc_intf.malloc 256) in
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "claims recorded" true (s.Alloc_stats.global_pops > 0);
  List.iter a.Alloc_intf.free qs;
  a.Alloc_intf.check ();
  (* Frees into index members ride heap 0's deferred list and stay
     charged until drained; the quiescent flush settles them. *)
  Hoard.flush_caches h;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  Platform.host_release pf

let test_global_lockfree_zero_heap0_lock () =
  (* The tentpole's acceptance bar: the lock-free index does not cut
     heap-0 lock traffic, it eliminates it — zero acquisitions on a
     transfer-heavy multiprocessor workload, against a locked baseline
     that must show real traffic on the same run. *)
  let nprocs = 8 in
  let heap0_acqs config =
    let w =
      match Experiments.workload "threadtest" Experiments.Quick with
      | Some w -> w
      | None -> Alcotest.fail "unknown workload threadtest"
    in
    let r = Runner.run (Runner.spec w (Hoard.factory ~config ()) ~nprocs) in
    List.fold_left
      (fun acc (lname, n, _) -> if lname = "hoard.heap0" then acc + n else acc)
      0 r.Runner.r_lock_stats
  in
  let locked = { cfg with Hoard_config.front_end = 16; deferred = true; slack = 0 } in
  let base = heap0_acqs locked in
  let gl = heap0_acqs { locked with Hoard_config.global = Hoard_config.Lockfree } in
  Alcotest.(check bool)
    (Printf.sprintf "locked baseline exercises heap 0 (%d acquisitions)" base)
    true (base > 0);
  Alcotest.(check int) "lock-free global: zero heap-0 acquisitions" 0 gl

let test_orphan_adoptions_match_events () =
  (* Satellite: every adoption the exit path counts must trace exactly
     one Orphan_adopt event, in both global-heap modes — the lockfree
     exit publishes the whole orphan batch to the index, the locked exit
     moves it under one global-lock acquisition, and both account
     identically. *)
  List.iter
    (fun gmode ->
      let name = Hoard_config.global_mode_name gmode in
      let sim = Sim.create ~nprocs:2 () in
      let pf = Sim.platform sim in
      let obs = Obs.create () in
      let config =
        {
          cfg with
          Hoard_config.nheaps = Some 2;
          release_to_os = false;
          front_end = 4;
          deferred = (gmode = Hoard_config.Lockfree);
          global = gmode;
        }
      in
      let h = Hoard.create ~config ~obs pf in
      let a = Hoard.allocator h in
      let ps = ref [] in
      ignore
        (Sim.spawn sim ~proc:0 (fun () ->
             (* Leave every block live: the exit must orphan this heap's
                superblocks into the global heap, not release them. *)
             ps := List.init 120 (fun _ -> a.Alloc_intf.malloc 64);
             a.Alloc_intf.thread_exit ()));
      Sim.run sim;
      let s = a.Alloc_intf.stats () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: adoptions happened (%d)" name s.Alloc_stats.orphan_adoptions)
        true
        (s.Alloc_stats.orphan_adoptions > 0);
      let ev =
        List.fold_left
          (fun acc (_, r) -> acc + Event_ring.recorded_kind r Event_ring.Orphan_adopt)
          0 (Obs.rings obs)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: one event per adoption" name)
        s.Alloc_stats.orphan_adoptions ev;
      Hoard.check h)
    [ Hoard_config.Locked; Hoard_config.Lockfree ]

(* --- the superblock reservoir --- *)

let mk_res ?(reservoir = 4) ?(release_threshold = 0) () =
  let pf = Platform.host ~vmem_backend:Vmem_backend.First_fit () in
  let config =
    { cfg with Hoard_config.reservoir; release_threshold; vmem_backend = Vmem_backend.First_fit }
  in
  let h = Hoard.create ~config pf in
  (h, Hoard.allocator h, config)

let test_reservoir_off_by_default () =
  (* Seed lifecycle must be untouched unless the knob is turned. *)
  Alcotest.(check int) "default reservoir" 0 Hoard_config.default.Hoard_config.reservoir;
  let _, a = mk () in
  let ps = List.init 5000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "no parks" 0 s.Alloc_stats.reservoir_parks;
  Alcotest.(check int) "no parked bytes" 0 s.Alloc_stats.reservoir_bytes

let test_reservoir_parks_and_decommits () =
  let h, a, config = mk_res () in
  let ps = List.init 5000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let s = a.Alloc_intf.stats () in
  let sb = config.Hoard_config.sb_size in
  Alcotest.(check bool) "superblocks parked" true (Hoard.reservoir_length h > 0);
  Alcotest.(check bool) "parks recorded" true (s.Alloc_stats.reservoir_parks > 0);
  Alcotest.(check bool) "parked pages decommitted" true (s.Alloc_stats.decommits > 0);
  Alcotest.(check int) "parked byte accounting"
    (Hoard.reservoir_length h * sb) s.Alloc_stats.reservoir_bytes;
  Alcotest.(check bool)
    (Printf.sprintf "resident %d <= held %d + R*S %d" s.Alloc_stats.resident_bytes
       s.Alloc_stats.held_bytes (config.Hoard_config.reservoir * sb))
    true
    (s.Alloc_stats.resident_bytes
     <= s.Alloc_stats.held_bytes + (config.Hoard_config.reservoir * sb));
  a.Alloc_intf.check ()

let test_reservoir_bounded_drops_overflow () =
  let h, a, config = mk_res ~reservoir:2 () in
  let ps = List.init 8000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "length within cap" true
    (Hoard.reservoir_length h <= config.Hoard_config.reservoir);
  Alcotest.(check bool) "overflow dropped" true (s.Alloc_stats.reservoir_drops > 0);
  Alcotest.(check bool) "overflow unmapped" true (s.Alloc_stats.os_unmaps > 0);
  a.Alloc_intf.check ()

let test_reservoir_reuse_recommits () =
  let h, a, _ = mk_res () in
  (* Fill one size class, free everything: superblocks park decommitted. *)
  let ps = List.init 5000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let parked = Hoard.reservoir_length h in
  Alcotest.(check bool) "parked" true (parked > 0);
  let maps_before = (a.Alloc_intf.stats ()).Alloc_stats.os_maps in
  (* Allocate a *different* size class: reuse must reformat the parked
     superblocks and recommit their pages instead of mapping fresh ones. *)
  let qs = List.init 200 (fun _ -> a.Alloc_intf.malloc 256) in
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "recommits recorded" true (s.Alloc_stats.recommits > 0);
  Alcotest.(check bool) "reservoir drained" true (Hoard.reservoir_length h < parked);
  Alcotest.(check int) "no new OS memory while parked" maps_before s.Alloc_stats.os_maps;
  List.iter a.Alloc_intf.free qs;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_reservoir_multiproc_sound () =
  (* Churn across 4 simulated processors with a tiny reservoir: the
     residency bound and the allocator's structural checks must hold at
     every interleaving we drive. *)
  let sim = Sim.create ~vmem_backend:Vmem_backend.First_fit ~nprocs:4 () in
  let pf = Sim.platform sim in
  let config =
    { cfg with Hoard_config.reservoir = 2; release_threshold = 0;
      vmem_backend = Vmem_backend.First_fit }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  for t = 0 to 3 do
    ignore
      (Sim.spawn sim (fun () ->
           let rng = Rng.create (17 + t) in
           for _ = 1 to 10 do
             let ps = List.init 120 (fun _ -> a.Alloc_intf.malloc (Rng.int_in rng 8 2048)) in
             List.iter a.Alloc_intf.free ps
           done))
  done;
  Sim.run sim;
  a.Alloc_intf.check ();
  let s = a.Alloc_intf.stats () in
  let cap = config.Hoard_config.reservoir * config.Hoard_config.sb_size in
  Alcotest.(check bool) "residency bound" true
    (s.Alloc_stats.resident_bytes <= s.Alloc_stats.held_bytes + cap);
  Alcotest.(check int) "nothing live" 0 s.Alloc_stats.live_bytes

let test_config_validation () =
  List.iter
    (fun bad -> Alcotest.check_raises "rejected" (Invalid_argument bad) (fun () ->
         Hoard_config.validate
           (match bad with
            | "Hoard_config: sb-size must be a power of two >= 1024" ->
              { cfg with Hoard_config.sb_size = 5000 }
            | "Hoard_config: empty-fraction must lie in (0, 1)" ->
              { cfg with Hoard_config.empty_fraction = 1.5 }
            | "Hoard_config: slack must be non-negative" -> { cfg with Hoard_config.slack = -1 }
            | _ -> assert false)))
    [
      "Hoard_config: sb-size must be a power of two >= 1024";
      "Hoard_config: empty-fraction must lie in (0, 1)";
      "Hoard_config: slack must be non-negative";
    ]

(* The large-object cache: a freed large region parks decommitted (no
   unmap, residency drops, held stays) and the next same-size allocation
   is a take -> commit instead of a second OS map. *)
let test_large_cache_roundtrip () =
  let pf = Platform.host () in
  let h = Hoard.create ~config:(Hoard_config.make ~large_cache:4 ()) pf in
  let a = Hoard.allocator h in
  let size = Hoard_config.max_small cfg + 1 in
  let p = a.Alloc_intf.malloc size in
  let s0 = a.Alloc_intf.stats () in
  Alcotest.(check int) "first allocation paid a map" 1 s0.Alloc_stats.large_maps;
  a.Alloc_intf.free p;
  let s1 = a.Alloc_intf.stats () in
  Alcotest.(check int) "parked, not unmapped" 0 s1.Alloc_stats.os_unmaps;
  Alcotest.(check int) "still held while parked" s0.Alloc_stats.held_bytes s1.Alloc_stats.held_bytes;
  Alcotest.(check bool) "residency dropped"
    true
    (s1.Alloc_stats.resident_bytes < s0.Alloc_stats.resident_bytes);
  Alcotest.(check int) "cache length" 1 (Hoard.large_cache_length h);
  let q = a.Alloc_intf.malloc size in
  let s2 = a.Alloc_intf.stats () in
  Alcotest.(check int) "served by the cache" 1 s2.Alloc_stats.large_cache_hits;
  Alcotest.(check int) "no second map" 1 s2.Alloc_stats.large_maps;
  Alcotest.(check int) "region reused in place" p q;
  a.Alloc_intf.free q;
  Hoard.check h

(* The deferred remote-free lists: a consumer's flushed remote frees are
   CAS pushes (no remote-queue enqueues), and the owner's next fill
   reclaims them in one exchange. *)
let test_deferred_lists_reclaim () =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let h =
    Hoard.create ~config:(Hoard_config.make ~front_end:4 ~deferred:true ()) pf
  in
  let a = Hoard.allocator h in
  let barrier = Sim.new_barrier sim ~parties:2 in
  let box = ref [||] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         box := Array.init 32 (fun _ -> a.Alloc_intf.malloc 64);
         Sim.barrier_wait barrier;
         (* consumer freed and flushed: the next fills reclaim. *)
         Sim.barrier_wait barrier;
         for _ = 1 to 64 do
           a.Alloc_intf.free (a.Alloc_intf.malloc 64)
         done;
         a.Alloc_intf.flush ()));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait barrier;
         Array.iter a.Alloc_intf.free !box;
         a.Alloc_intf.flush ();
         Sim.barrier_wait barrier));
  Sim.run sim;
  Hoard.flush_caches h;
  Hoard.check h;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "no bounded-queue enqueues" 0 s.Alloc_stats.remote_enqueues;
  Alcotest.(check bool) "remote frees were deferred" true (s.Alloc_stats.deferred_enqueues >= 32);
  Alcotest.(check bool) "the owner reclaimed" true (s.Alloc_stats.deferred_reclaims >= 1);
  Alcotest.(check bool) "reclaims batch"
    true
    (s.Alloc_stats.deferred_reclaims <= s.Alloc_stats.deferred_enqueues);
  Alcotest.(check int) "nothing live" 0 s.Alloc_stats.live_bytes

(* Batched header writes: a fill that reclaims N deferred blocks of one
   superblock writes that superblock's 16 B header exactly once (the 8 B
   link writes stay per block). A wrapped platform counts header-sized
   writes at superblock bases during the owner's fill, which allocates
   another size class so its own batch touches other headers. *)
let test_reclaim_writes_header_once () =
  List.iter
    (fun label ->
      let config = Option.get (Allocators.base_config label) in
      let sim = Sim.create ~nprocs:2 () in
      let pf0 = Sim.platform sim in
      let sb_size = config.Hoard_config.sb_size in
      let counting = ref false and header_writes = Hashtbl.create 8 in
      let pf =
        {
          pf0 with
          Platform.write =
            (fun ~addr ~len ->
              if !counting && len = 16 && addr mod sb_size = 0 then
                Hashtbl.replace header_writes addr
                  (1 + Option.value ~default:0 (Hashtbl.find_opt header_writes addr));
              pf0.Platform.write ~addr ~len);
        }
      in
      let h = Hoard.create ~config pf in
      let a = Hoard.allocator h in
      let n = 12 in
      let barrier = Sim.new_barrier sim ~parties:2 in
      let box = ref [||] in
      ignore
        (Sim.spawn sim ~proc:0 (fun () ->
             box := Array.init n (fun _ -> a.Alloc_intf.malloc 64);
             Sim.barrier_wait barrier;
             (* The consumer freed and flushed: all n blocks sit on this
                heap's deferred list. *)
             Sim.barrier_wait barrier;
             counting := true;
             ignore (a.Alloc_intf.malloc 512);
             counting := false));
      ignore
        (Sim.spawn sim ~proc:1 (fun () ->
             Sim.barrier_wait barrier;
             Array.iter a.Alloc_intf.free !box;
             a.Alloc_intf.flush ();
             Sim.barrier_wait barrier));
      Sim.run sim;
      let base = !box.(0) - (!box.(0) mod sb_size) in
      Array.iter
        (fun addr -> Alcotest.(check int) (label ^ ": one superblock") base (addr - (addr mod sb_size)))
        !box;
      Alcotest.(check int) (label ^ ": the fill reclaimed the list") 0
        (Array.fold_left ( + ) 0 (Hoard.deferred_lengths h));
      Alcotest.(check int) (label ^ ": header written once") 1
        (Option.value ~default:0 (Hashtbl.find_opt header_writes base));
      Hoard.flush_caches h;
      Hoard.check h)
    [ "hoard-df"; "hoard-gl" ]

(* The owner-side drain pre-links a reclaimed batch before taking the
   heap lock and splices it under the lock: of N blocks from S
   superblocks, only S free-list links (the ones that point at each
   superblock's current head) and S headers are written while the heap
   lock is held; the other N - S links are written before it. Checked on
   both remote-free channels: the deferred list (hoard-df, hoard-gl) and
   the bounded queue (hoard-fe). *)
let test_drain_splices_under_lock () =
  List.iter
    (fun label ->
      let config = Option.get (Allocators.base_config label) in
      let sim = Sim.create ~nprocs:2 () in
      let pf0 = Sim.platform sim in
      let sb_size = config.Hoard_config.sb_size in
      let box = ref [||] in
      let counting = ref false and held = ref false in
      let links_held = ref 0 and links_total = ref 0 and headers_held = ref 0 in
      let pf =
        {
          pf0 with
          Platform.write =
            (fun ~addr ~len ->
              if !counting then begin
                if len = 8 && Array.mem addr !box then begin
                  incr links_total;
                  if !held then incr links_held
                end;
                if !held && len = 16 && Array.exists (fun a -> a - (a mod sb_size) = addr) !box then
                  incr headers_held
              end;
              pf0.Platform.write ~addr ~len);
          new_lock =
            (fun name ->
              let l = pf0.Platform.new_lock name in
              if name <> "hoard.heap1" then l
              else
                {
                  l with
                  Platform.acquire =
                    (fun () ->
                      l.Platform.acquire ();
                      held := true);
                  release =
                    (fun () ->
                      held := false;
                      l.Platform.release ());
                });
        }
      in
      let h = Hoard.create ~config pf in
      let a = Hoard.allocator h in
      let n = 12 in
      let barrier = Sim.new_barrier sim ~parties:2 in
      ignore
        (Sim.spawn sim ~proc:0 (fun () ->
             (* 1 KiB blocks: a handful per superblock, so the batch spans
                several. Every other block stays live, so no superblock
                empties and the fill below cannot recycle one. *)
             let all = Array.init (2 * n) (fun _ -> a.Alloc_intf.malloc 1024) in
             box := Array.init n (fun i -> all.(2 * i));
             Sim.barrier_wait barrier;
             (* The consumer freed and flushed: all n blocks wait on heap
                1's remote-free channel. A fill of another class drains
                them. *)
             Sim.barrier_wait barrier;
             counting := true;
             ignore (a.Alloc_intf.malloc 64);
             counting := false));
      ignore
        (Sim.spawn sim ~proc:1 (fun () ->
             Sim.barrier_wait barrier;
             Array.iter a.Alloc_intf.free !box;
             a.Alloc_intf.flush ();
             Sim.barrier_wait barrier));
      Sim.run sim;
      let s =
        List.length (List.sort_uniq compare (Array.to_list (Array.map (fun x -> x - (x mod sb_size)) !box)))
      in
      Alcotest.(check bool) (label ^ ": the batch spans several superblocks") true (s >= 2);
      Alcotest.(check int) (label ^ ": the fill drained the channel") 0
        (Array.fold_left ( + ) 0 (Hoard.remote_queue_lengths h));
      Alcotest.(check int) (label ^ ": every link written once") n !links_total;
      Alcotest.(check int) (label ^ ": one link per superblock under the lock") s !links_held;
      Alcotest.(check int) (label ^ ": one header per superblock under the lock") s !headers_held;
      Hoard.flush_caches h;
      Hoard.check h)
    [ "hoard-df"; "hoard-gl"; "hoard-fe" ]

(* Regression: the lock-free global reclaim charged a block's size to the
   stats AFTER freeing it into the index, by when a peer could have
   claimed the emptied superblock and reformatted it for another class.
   The default bursty server mix on hoard-gl without a front end failed
   [Hoard.check]'s live-bytes reconciliation on every run. *)
let test_gl_reclaim_reads_size_before_free () =
  let factory =
    match Allocators.with_overrides (fun cfg -> { cfg with Hoard_config.front_end = 0 }) "hoard-gl" with
    | Some f -> f
    | None -> Alcotest.fail "hoard-gl takes overrides"
  in
  let params = { Server_mix.default_params with Server_mix.profile = Server_mix.Bursty; requests = 5120 } in
  (* [run_server] runs [Hoard.check] at the end. *)
  let r = Slo.run_server ~params factory ~nprocs:8 in
  Alcotest.(check int) "every request served" 5120
    (Histogram.count (Server_mix.request_latencies r.Slo.sv_recorder))

(* --- the global-free shards (global = lockfree) --- *)

(* Every block parked on a global-free shard, as (heap, address). *)
let global_free_blocks h =
  let l = ref [] in
  Hoard.iter_global_free h (fun ~heap _ addr -> l := (heap, addr) :: !l);
  !l

(* Thread 0 (heap 1) allocates four blocks of one superblock and exits,
   so adoption publishes the superblock — live blocks inside — to the
   lock-free index. Thread 1 (heap 2) frees one of them: without a front
   end the free parks on heap 2's global-free shard. Thread 2 (heap 3)
   then refills for another size class, which reclaims only heap 3's
   shard; with [~flush] thread 1 flushes last. Returns the instance, its
   allocator, the four blocks, the shard contents after the free and
   after the refill, and [deferred_lengths.(0)] /
   [remote_queue_lengths.(0)] at the first of those points. *)
let global_free_shard_run ~flush =
  let sim = Sim.create ~nprocs:3 () in
  let pf = Sim.platform sim in
  let config =
    {
      cfg with
      Hoard_config.nheaps = Some 3;
      front_end = 0;
      release_to_os = false;
      global = Hoard_config.Lockfree;
    }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:3 in
  let blocks = ref [||] in
  let after_free = ref [] and after_refill = ref [] and lengths = ref (0, 0) in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         blocks := Array.init 4 (fun _ -> a.Alloc_intf.malloc 64);
         a.Alloc_intf.thread_exit ();
         Sim.barrier_wait b;
         Sim.barrier_wait b;
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         a.Alloc_intf.free !blocks.(0);
         Sim.barrier_wait b;
         Sim.barrier_wait b;
         if flush then a.Alloc_intf.flush ()));
  ignore
    (Sim.spawn sim ~proc:2 (fun () ->
         Sim.barrier_wait b;
         Sim.barrier_wait b;
         after_free := global_free_blocks h;
         lengths := ((Hoard.deferred_lengths h).(0), (Hoard.remote_queue_lengths h).(0));
         ignore (a.Alloc_intf.malloc 256);
         after_refill := global_free_blocks h;
         Sim.barrier_wait b));
  Sim.run sim;
  (h, a, !blocks, !after_free, !after_refill, !lengths)

let test_global_free_parks_on_freeing_heap () =
  let h, a, blocks, after_free, after_refill, (dfl0, rq0) = global_free_shard_run ~flush:true in
  Alcotest.(check (list (pair int int))) "parked on heap 2's shard" [ (2, blocks.(0)) ] after_free;
  Alcotest.(check int) "deferred_lengths.(0) sums the shards" 1 dfl0;
  Alcotest.(check int) "remote_queue_lengths.(0) sums the shards" 1 rq0;
  Alcotest.(check (list (pair int int))) "heap 3's refill leaves it on heap 2's shard" [ (2, blocks.(0)) ]
    after_refill;
  (* Heap 2's flush reclaimed its shard through the Busy handshake. *)
  Alcotest.(check (list (pair int int))) "heap 2's flush completed it" [] (global_free_blocks h);
  Alcotest.(check int) "shards summed empty" 0 (Hoard.deferred_lengths h).(0);
  Alcotest.(check int) "superblock still in the index" 1 (Hoard.heap_info h 0).Hoard.superblocks;
  Alcotest.(check int) "its live bytes fell by one block" (3 * 64) (Hoard.heap_info h 0).Hoard.u_bytes;
  Hoard.check h;
  let classes = Hoard.size_classes h in
  let big = Size_class.size_of_class classes (Size_class.class_of_size classes 256) in
  Alcotest.(check int) "live: three 64 B blocks and the refill's block" ((3 * 64) + big)
    (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let test_check_walks_global_free_shards () =
  let h, _, _, _, _, _ = global_free_shard_run ~flush:false in
  Hoard.check h;
  let n = ref 0 in
  Hoard.iter_global_free h (fun ~heap:_ sb addr ->
      incr n;
      Superblock.clear_cached sb addr);
  Alcotest.(check int) "one block parked" 1 !n;
  match Hoard.check h with
  | () -> Alcotest.fail "Hoard.check must reject a parked block without its custody mark"
  | exception Failure msg ->
    Alcotest.(check bool) ("names the custody mark: " ^ msg) true
      (Astring.String.is_infix ~affix:"without custody mark" msg)

(* Producer/consumer on the lock-free global heap: thread 0 (heap 1) only
   allocates, thread 1 (heap 2) only frees, [rounds] times over a batch
   of [n] 64 B blocks. The consumer frees in a stride, half the batch
   before a producer flush and half after it, so the flush's trims
   publish superblocks the second half still lives in and those frees
   park on heap 2's global-free shard — and heap 2 never refills or
   flushes. Returns the instance and the held bytes after each round. *)
let free_only_run ~front_end ~rounds ~n =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let config =
    {
      (Hoard_config.make ~front_end ~deferred:true ~global:Hoard_config.Lockfree ()) with
      Hoard_config.nheaps = Some 2;
    }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:2 in
  let batch = ref [||] and samples = ref [] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to rounds do
           batch := Array.init n (fun _ -> a.Alloc_intf.malloc 64);
           Sim.barrier_wait b;
           Sim.barrier_wait b;
           a.Alloc_intf.flush ();
           Sim.barrier_wait b;
           Sim.barrier_wait b;
           samples := (a.Alloc_intf.stats ()).Alloc_stats.held_bytes :: !samples
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to rounds do
           Sim.barrier_wait b;
           for i = 0 to (n / 2) - 1 do
             a.Alloc_intf.free !batch.(i * 37 mod n)
           done;
           Sim.barrier_wait b;
           Sim.barrier_wait b;
           for i = n / 2 to n - 1 do
             a.Alloc_intf.free !batch.(i * 37 mod n)
           done;
           Sim.barrier_wait b
         done));
  Sim.run sim;
  (h, List.rev !samples)

let test_free_only_thread_bounded front_end () =
  let rounds = 100 and n = 2048 in
  let h, samples = free_only_run ~front_end ~rounds ~n in
  (* The program never holds more than one batch; the blowup bound leaves
     room for another. *)
  let peak = List.fold_left max 0 samples in
  Alcotest.(check bool)
    (Printf.sprintf "peak held %d B within two batches" peak)
    true
    (peak <= 2 * n * 64);
  (* Freed blocks become reusable: of the [rounds * n] blocks the consumer
     freed, under half a batch still waits on the shards. *)
  let parked = (Hoard.deferred_lengths h).(0) in
  Alcotest.(check bool) (Printf.sprintf "%d blocks parked, under half a batch" parked) true (parked < n / 2);
  Hoard.flush_caches h;
  Hoard.check h;
  Alcotest.(check int) "nothing live" 0 ((Hoard.allocator h).Alloc_intf.stats ()).Alloc_stats.live_bytes

(* The knob registry: make, textual set/set_all, name normalization,
   registry-driven help and printing. *)
let test_knob_registry () =
  (* make with no overrides is the default config. *)
  Alcotest.(check bool) "make () = default" true (Hoard_config.make () = Hoard_config.default);
  (* A labelled make equals the textual set of the same knob. *)
  Alcotest.(check bool) "make ~deferred = set deferred=true" true
    (Hoard_config.make ~deferred:true ~front_end:4 ()
    = Hoard_config.set_all Hoard_config.default [ "deferred=true"; "front-end=4" ]);
  (* One representative knob per value shape. *)
  let c = Hoard_config.set Hoard_config.default "sb-size=4096" in
  Alcotest.(check int) "int knob" 4096 c.Hoard_config.sb_size;
  let c = Hoard_config.set Hoard_config.default "empty-fraction=0.5" in
  Alcotest.(check (float 1e-9)) "float knob" 0.5 c.Hoard_config.empty_fraction;
  let c = Hoard_config.set Hoard_config.default "large-cache=7" in
  Alcotest.(check int) "large-cache knob" 7 c.Hoard_config.large_cache;
  let c = Hoard_config.set Hoard_config.default "nheaps=3" in
  Alcotest.(check bool) "nheaps int" true (c.Hoard_config.nheaps = Some 3);
  let c = Hoard_config.set c "nheaps=auto" in
  Alcotest.(check bool) "nheaps auto" true (c.Hoard_config.nheaps = None);
  (* Underscores normalize to dashes. *)
  let c = Hoard_config.set Hoard_config.default "front_end=9" in
  Alcotest.(check int) "underscore alias" 9 c.Hoard_config.front_end;
  (* The seeded mutants round-trip through the registry; unknown mutant
     names are rejected by validation. *)
  let c = Hoard_config.set Hoard_config.default "mutant=orphan-lost-superblock" in
  Alcotest.(check string) "mutant knob" "orphan-lost-superblock" c.Hoard_config.mutant;
  (* Unknown knobs and malformed or out-of-range values are rejected. *)
  let rejects s =
    match Hoard_config.set Hoard_config.default s with
    | _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s)
    | exception Invalid_argument _ -> ()
  in
  rejects "bogus=1";
  rejects "deferred";
  rejects "deferred=maybe";
  rejects "sb-size=5000";
  rejects "empty-fraction=2.0";
  (* The registry drives the CLI help and the printer. *)
  let names = Hoard_config.knob_names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names);
      Alcotest.(check bool) (n ^ " documented") true
        (Astring.String.is_infix ~affix:n (Hoard_config.knob_doc ())))
    [ "sb-size"; "empty-fraction"; "deferred"; "large-cache"; "front-end"; "mutant" ];
  let printed =
    Format.asprintf "%a" Hoard_config.pp
      (Hoard_config.make ~deferred:true ~front_end:4 ~large_cache:2 ())
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " printed") true (Astring.String.is_infix ~affix:n printed))
    [ "deferred"; "large-cache"; "front-end" ]

(* Fuzz: a textual [set_all] over a random subset of knobs must land on
   exactly the config the labelled builder produces for the same subset —
   the two front doors of the registry can never diverge. The mutant knob
   draws from [known_mutants], covering the newly seeded ones. *)
let test_set_all_matches_labelled_make =
  QCheck.Test.make ~name:"set_all = labelled make on random knob subsets" ~count:300
    QCheck.(pair (int_bound 0x3FFF) (int_bound 1000))
    (fun (mask, vseed) ->
      let bit i = mask land (1 lsl i) <> 0 in
      let pick i l = List.nth l ((vseed + i) mod List.length l) in
      let opt i l = if bit i then Some (pick i l) else None in
      let sb_size = opt 0 [ 4096; 8192; 32768 ] in
      let empty_fraction = opt 1 [ 0.125; 0.25; 0.5 ] in
      let slack = opt 2 [ 0; 2; 4 ] in
      let nheaps = opt 3 [ Some 1; Some 3; Some 9; None ] in
      let release_threshold = opt 4 [ 0; 2; 8 ] in
      let front_end = opt 5 [ 0; 4; 16 ] in
      let deferred = opt 6 [ true; false ] in
      let large_cache = opt 7 [ 0; 2; 8 ] in
      let sanitize = opt 8 [ true; false ] in
      let quarantine = opt 9 [ 0; 8; 64 ] in
      let mutant = opt 10 Hoard_config.known_mutants in
      let reservoir = opt 11 [ 0; 2; 4 ] in
      let assign_by_tid = opt 12 [ true; false ] in
      let global = opt 13 [ Hoard_config.Locked; Hoard_config.Lockfree ] in
      let labelled =
        Hoard_config.make ?sb_size ?empty_fraction ?slack ?nheaps ?release_threshold ?front_end
          ?deferred ?large_cache ?sanitize ?quarantine ?mutant ?reservoir ?assign_by_tid
          ?global ()
      in
      let textual =
        List.filter_map
          (fun x -> x)
          [
            Option.map (Printf.sprintf "sb-size=%d") sb_size;
            Option.map (Printf.sprintf "empty-fraction=%g") empty_fraction;
            Option.map (Printf.sprintf "slack=%d") slack;
            Option.map
              (function Some n -> Printf.sprintf "nheaps=%d" n | None -> "nheaps=auto")
              nheaps;
            Option.map (Printf.sprintf "release-threshold=%d") release_threshold;
            Option.map (Printf.sprintf "front-end=%d") front_end;
            Option.map (Printf.sprintf "deferred=%b") deferred;
            Option.map (Printf.sprintf "large-cache=%d") large_cache;
            Option.map (Printf.sprintf "sanitize=%b") sanitize;
            Option.map (Printf.sprintf "quarantine=%d") quarantine;
            Option.map (Printf.sprintf "mutant=%s") mutant;
            Option.map (Printf.sprintf "reservoir=%d") reservoir;
            Option.map (Printf.sprintf "assign-by-tid=%b") assign_by_tid;
            Option.map
              (fun g -> Printf.sprintf "global=%s" (Hoard_config.global_mode_name g))
              global;
          ]
      in
      labelled = Hoard_config.set_all Hoard_config.default textual)

let () =
  Alcotest.run "hoard"
    [
      ( "api",
        [
          Alcotest.test_case "malloc usable" `Quick test_malloc_returns_usable_block;
          Alcotest.test_case "distinct blocks" `Quick test_live_blocks_distinct;
          Alcotest.test_case "zero rejected" `Quick test_malloc_zero_rejected;
          Alcotest.test_case "foreign free" `Quick test_free_foreign_rejected;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "large objects" `Quick test_large_objects;
          Alcotest.test_case "boundary sizes" `Quick test_boundary_sizes;
          Alcotest.test_case "reuse after free" `Quick test_memory_reused_after_free;
          Alcotest.test_case "stats" `Quick test_stats_requested_bytes;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "knob registry" `Quick test_knob_registry;
          QCheck_alcotest.to_alcotest test_set_all_matches_labelled_make;
          Alcotest.test_case "large cache roundtrip" `Quick test_large_cache_roundtrip;
          Alcotest.test_case "deferred lists reclaim" `Quick test_deferred_lists_reclaim;
          Alcotest.test_case "reclaim writes each header once" `Quick test_reclaim_writes_header_once;
          Alcotest.test_case "drain splices under the lock" `Quick test_drain_splices_under_lock;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "release to OS" `Quick test_empty_superblocks_released_to_os;
          Alcotest.test_case "emptiness invariant" `Quick test_invariant_after_frees;
          Alcotest.test_case "transfer to global" `Quick test_transfer_to_global_happens;
          Alcotest.test_case "return from global" `Quick test_superblocks_return_from_global;
          Alcotest.test_case "heap info" `Quick test_heaps_info;
          Alcotest.test_case "nheaps override" `Quick test_nheaps_override;
          Alcotest.test_case "tiny superblocks" `Quick test_tiny_superblocks;
          Alcotest.test_case "exact superblock fill" `Quick test_exact_superblock_fill;
          Alcotest.test_case "tid-hash heap assignment" `Quick test_assign_by_tid_spreads_heaps;
          Alcotest.test_case "heap info reconciles" `Quick test_heap_info_reconciles_with_stats;
          Alcotest.test_case "usable matches class" `Quick test_usable_size_matches_class;
          QCheck_alcotest.to_alcotest test_random_ops_sound;
          QCheck_alcotest.to_alcotest test_sim_random_stress;
          QCheck_alcotest.to_alcotest test_fuzzed_schedules_sound;
        ] );
      ( "multiprocessor",
        [
          Alcotest.test_case "blowup bounded" `Quick test_blowup_bounded_producer_consumer;
          Alcotest.test_case "remote free" `Quick test_remote_free_returns_to_owner;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "off by default" `Quick test_reservoir_off_by_default;
          Alcotest.test_case "parks and decommits" `Quick test_reservoir_parks_and_decommits;
          Alcotest.test_case "bounded, drops overflow" `Quick test_reservoir_bounded_drops_overflow;
          Alcotest.test_case "reuse recommits" `Quick test_reservoir_reuse_recommits;
          Alcotest.test_case "multiproc sound" `Quick test_reservoir_multiproc_sound;
        ] );
      ( "front end",
        [
          Alcotest.test_case "off by default" `Quick test_front_end_off_by_default;
          Alcotest.test_case "cache bounded and flushed" `Quick test_cache_bounded_and_flushed;
          Alcotest.test_case "check exact with caches" `Quick test_check_exact_with_caches_populated;
          Alcotest.test_case "double free cached" `Quick test_double_free_cached_detected;
          Alcotest.test_case "remote queue drain reuse" `Quick test_remote_queue_drain_reuses_memory;
          Alcotest.test_case "5x fewer lock acquisitions" `Quick test_front_end_cuts_lock_traffic;
          Alcotest.test_case "cross-thread double free cached" `Quick test_cross_thread_double_free_cached;
          Alcotest.test_case "recycled tid exit flush" `Quick test_recycled_tid_reflushes_on_exit;
          Alcotest.test_case "remote forwards bounded" `Quick test_remote_forward_bounded;
        ] );
      ( "global heap",
        [
          Alcotest.test_case "locked by default" `Quick test_global_locked_by_default;
          Alcotest.test_case "lockfree roundtrip" `Quick test_global_lockfree_roundtrip;
          Alcotest.test_case "zero heap-0 lock acquisitions" `Quick test_global_lockfree_zero_heap0_lock;
          Alcotest.test_case "orphan adoptions match events" `Quick test_orphan_adoptions_match_events;
          Alcotest.test_case "lockfree reclaim reads size before free" `Quick
            test_gl_reclaim_reads_size_before_free;
          Alcotest.test_case "global free parks on the freeing heap" `Quick
            test_global_free_parks_on_freeing_heap;
          Alcotest.test_case "check walks the global-free shards" `Quick test_check_walks_global_free_shards;
          Alcotest.test_case "free-only thread stays bounded (no front end)" `Quick
            (test_free_only_thread_bounded 0);
          Alcotest.test_case "free-only thread stays bounded (front end)" `Quick
            (test_free_only_thread_bounded 16);
        ] );
    ]
