(* Baseline allocators: per-family behaviour plus a generic correctness
   suite run over every allocator in the taxonomy (including Hoard). *)

(* --- generic correctness, parameterised over the allocator --- *)

let generic_roundtrip (f : Alloc_intf.factory) () =
  let a = f.Alloc_intf.instantiate (Platform.host ()) in
  let p = a.Alloc_intf.malloc 100 in
  Alcotest.(check bool) "usable >= request" true (a.Alloc_intf.usable_size p >= 100);
  a.Alloc_intf.free p;
  Alcotest.(check int) "live zero" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  a.Alloc_intf.check ()

let generic_no_overlap (f : Alloc_intf.factory) () =
  let a = f.Alloc_intf.instantiate (Platform.host ()) in
  let rng = Rng.create 7 in
  let live = ref [] in
  for _ = 1 to 2000 do
    if Rng.bool rng || !live = [] then begin
      let size = Rng.int_in rng 1 6000 in
      let p = a.Alloc_intf.malloc size in
      live := (p, a.Alloc_intf.usable_size p) :: !live
    end
    else begin
      match !live with
      | (p, _) :: rest ->
        a.Alloc_intf.free p;
        live := rest
      | [] -> ()
    end
  done;
  a.Alloc_intf.check ();
  let sorted = List.sort compare !live in
  let rec disjoint = function
    | (a1, s1) :: ((a2, _) :: _ as rest) ->
      if a1 + s1 > a2 then failwith (Printf.sprintf "overlap: %x+%d vs %x" a1 s1 a2) else disjoint rest
    | _ -> true
  in
  Alcotest.(check bool) "live blocks disjoint" true (disjoint sorted);
  List.iter (fun (p, _) -> a.Alloc_intf.free p) !live;
  Alcotest.(check int) "all returned" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  a.Alloc_intf.check ()

let generic_held_covers_live (f : Alloc_intf.factory) () =
  let pf = Platform.host () in
  let a = f.Alloc_intf.instantiate pf in
  let ps = List.init 300 (fun i -> a.Alloc_intf.malloc (8 + (8 * (i mod 100)))) in
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool) "held >= live" true (s.Alloc_stats.held_bytes >= s.Alloc_stats.live_bytes);
  (* Held bytes as tracked by the allocator must agree with the address
     space's per-owner accounting. *)
  Alcotest.(check int) "held = vmem owner bytes" (pf.Platform.mapped_bytes ~owner:a.Alloc_intf.owner)
    s.Alloc_stats.held_bytes;
  List.iter a.Alloc_intf.free ps

let generic_sim_multithread (f : Alloc_intf.factory) () =
  (* Four threads allocate and free concurrently on the simulator; the
     allocator must stay sound and account every byte. *)
  let sim = Sim.create ~nprocs:4 () in
  let a = f.Alloc_intf.instantiate (Sim.platform sim) in
  for t = 0 to 3 do
    ignore
      (Sim.spawn sim (fun () ->
           let rng = Rng.create (1000 + t) in
           let live = ref [] in
           for _ = 1 to 300 do
             if Rng.bool rng || !live = [] then live := a.Alloc_intf.malloc (Rng.int_in rng 8 256) :: !live
             else begin
               match !live with
               | p :: rest ->
                 a.Alloc_intf.free p;
                 live := rest
               | [] -> ()
             end
           done;
           List.iter a.Alloc_intf.free !live))
  done;
  Sim.run sim;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let generic_sim_cross_thread_free (f : Alloc_intf.factory) () =
  (* Producer on proc 0 allocates, consumer on proc 1 frees. *)
  let sim = Sim.create ~nprocs:2 () in
  let a = f.Alloc_intf.instantiate (Sim.platform sim) in
  let b = Sim.new_barrier sim ~parties:2 in
  let box = ref [] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to 10 do
           box := List.init 50 (fun i -> a.Alloc_intf.malloc (8 + (8 * (i mod 16))));
           Sim.barrier_wait b;
           Sim.barrier_wait b
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to 10 do
           Sim.barrier_wait b;
           List.iter a.Alloc_intf.free !box;
           box := [];
           Sim.barrier_wait b
         done));
  Sim.run sim;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let generic_suite name f =
  ( name,
    [
      Alcotest.test_case "roundtrip" `Quick (generic_roundtrip f);
      Alcotest.test_case "no overlap" `Quick (generic_no_overlap f);
      Alcotest.test_case "held covers live" `Quick (generic_held_covers_live f);
      Alcotest.test_case "sim multithread" `Quick (generic_sim_multithread f);
      Alcotest.test_case "sim cross-thread free" `Quick (generic_sim_cross_thread_free f);
    ] )

(* --- family-specific behaviour --- *)

let test_serial_single_lock_contention () =
  let sim = Sim.create ~nprocs:4 () in
  let a = (Locked_heaps.serial ()).Alloc_intf.instantiate (Sim.platform sim) in
  for _ = 0 to 3 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 100 do
             a.Alloc_intf.free (a.Alloc_intf.malloc 64)
           done))
  done;
  Sim.run sim;
  let spins = List.fold_left (fun acc (_, _, s) -> acc + s) 0 (Sim.lock_stats sim) in
  Alcotest.(check bool) (Printf.sprintf "heap lock contended (%d spins)" spins) true (spins > 0)

let test_pure_private_blowup_unbounded () =
  (* Producer-consumer: pure-private's held memory grows with rounds even
     though live memory is constant — the unbounded blowup of the paper. *)
  let sim = Sim.create ~nprocs:2 () in
  let t = Private_heaps.create `Pure_private (Sim.platform sim) in
  let a = Private_heaps.allocator t in
  let b = Sim.new_barrier sim ~parties:2 in
  let box = ref [] in
  let rounds = 40 and batch = 300 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to rounds do
           box := List.init batch (fun _ -> a.Alloc_intf.malloc 64);
           Sim.barrier_wait b;
           Sim.barrier_wait b
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to rounds do
           Sim.barrier_wait b;
           List.iter a.Alloc_intf.free !box;
           box := [];
           Sim.barrier_wait b
         done));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  let blowup = float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int s.Alloc_stats.peak_live_bytes in
  Alcotest.(check bool) (Printf.sprintf "blowup %.1fx grows with rounds" blowup) true (blowup > 10.0);
  (* The freed memory is stranded on the consumer's lists. *)
  Alcotest.(check bool) "stranded on consumer" true (Private_heaps.thread_free_bytes t ~tid:1 > 0)

let test_private_ownership_blowup_bounded_by_p () =
  (* Same adversary: ownership-based heaps stay bounded (no growth with
     rounds), unlike pure-private. *)
  let sim = Sim.create ~nprocs:2 () in
  let a = (Locked_heaps.private_ownership ()).Alloc_intf.instantiate (Sim.platform sim) in
  let b = Sim.new_barrier sim ~parties:2 in
  let box = ref [] in
  let rounds = 40 and batch = 300 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to rounds do
           box := List.init batch (fun _ -> a.Alloc_intf.malloc 64);
           Sim.barrier_wait b;
           Sim.barrier_wait b
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to rounds do
           Sim.barrier_wait b;
           List.iter a.Alloc_intf.free !box;
           box := [];
           Sim.barrier_wait b
         done));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  let blowup = float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int s.Alloc_stats.peak_live_bytes in
  Alcotest.(check bool) (Printf.sprintf "blowup %.1fx stays small" blowup) true (blowup < 4.0)

let test_concurrent_single_classes_parallel () =
  (* Two threads on different size classes should not contend. *)
  let sim = Sim.create ~nprocs:2 () in
  let a = (Locked_heaps.concurrent_single ()).Alloc_intf.instantiate (Sim.platform sim) in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to 200 do
           a.Alloc_intf.free (a.Alloc_intf.malloc 8)
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to 200 do
           a.Alloc_intf.free (a.Alloc_intf.malloc 1024)
         done));
  Sim.run sim;
  let spins = List.fold_left (fun acc (_, _, s) -> acc + s) 0 (Sim.lock_stats sim) in
  Alcotest.(check int) "no lock contention across classes" 0 spins

(* The three locking rows are one module with three heap policies; pin
   what each policy decides. *)
let locked_policies =
  let classes = Size_class.create ~max_small:4096 () in
  let class_lock = Printf.sprintf "concsingle.class%d" in
  (* label, factory, heap locks, the lock of proc 0's 64 B home heap, remote frees *)
  [
    ("serial", Locked_heaps.serial, [ "serial.heap" ], "serial.heap", 0);
    ( "concurrent-single",
      Locked_heaps.concurrent_single,
      List.init (Size_class.count classes) class_lock,
      class_lock (Size_class.class_of_size classes 64),
      0 );
    ( "private-ownership",
      Locked_heaps.private_ownership,
      [ "ownership.heap0"; "ownership.heap1" ],
      "ownership.heap0",
      1 );
  ]

let test_locked_heaps_policies () =
  List.iter
    (fun (label, factory, heap_locks, home_lock, remote) ->
      let sim = Sim.create ~nprocs:2 () in
      let a = (factory ()).Alloc_intf.instantiate (Sim.platform sim) in
      (* Creation order fixes each lock word's simulated address. *)
      let names = List.map (fun (n, _, _) -> n) (Sim.lock_stats sim) in
      let expected = ("large" :: List.init 64 (Printf.sprintf "sbreg.s%d")) @ heap_locks in
      Alcotest.(check (list string)) (label ^ ": locks in creation order") expected names;
      (* Proc 0 mallocs a block, proc 1 frees it, proc 0 mallocs again. *)
      let b = Sim.new_barrier sim ~parties:2 in
      let first = ref 0 and again = ref 0 in
      ignore
        (Sim.spawn sim ~proc:0 (fun () ->
             first := a.Alloc_intf.malloc 64;
             Sim.barrier_wait b;
             Sim.barrier_wait b;
             again := a.Alloc_intf.malloc 64));
      ignore
        (Sim.spawn sim ~proc:1 (fun () ->
             Sim.barrier_wait b;
             a.Alloc_intf.free !first;
             Sim.barrier_wait b));
      Sim.run sim;
      a.Alloc_intf.check ();
      Alcotest.(check int) (label ^ ": remote frees") remote (a.Alloc_intf.stats ()).Alloc_stats.remote_frees;
      (* The free took the owning heap's lock, not the freeing processor's,
         and the owner reuses the block. *)
      let used =
        List.filter_map
          (fun (n, acqs, _) -> if acqs > 0 && List.mem n heap_locks then Some (n, acqs) else None)
          (Sim.lock_stats sim)
      in
      Alcotest.(check (list (pair string int))) (label ^ ": one heap took all three") [ (home_lock, 3) ] used;
      Alcotest.(check int) (label ^ ": block back on its heap") !first !again)
    locked_policies

(* The two private-heap rows are one module with two policies: the
   threshold row adds per-class pools and their locks. *)
let test_private_heaps_policies () =
  let classes = Size_class.create ~max_small:4096 () in
  let sclass = Size_class.class_of_size classes 64 in
  let stripes = List.init 64 (Printf.sprintf "sbreg.s%d") in
  let lock_names sim = List.map (fun (n, _, _) -> n) (Sim.lock_stats sim) in
  let is_pool n = String.starts_with ~prefix:"threshold.pool" n in
  (* Pure-private: a block freed on another thread joins that thread's
     lists, and no pool lock exists. *)
  let sim = Sim.create ~nprocs:2 () in
  let t = Private_heaps.create `Pure_private (Sim.platform sim) in
  let a = Private_heaps.allocator t in
  (* Creation order fixes each lock word's simulated address. *)
  Alcotest.(check (list string))
    "pure-private: locks in creation order"
    ([ "pureprivate.table"; "large" ] @ stripes)
    (lock_names sim);
  let b = Sim.new_barrier sim ~parties:2 in
  let block = ref 0 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         block := a.Alloc_intf.malloc 64;
         Sim.barrier_wait b));
  let freer =
    Sim.spawn sim ~proc:1 (fun () ->
        Sim.barrier_wait b;
        a.Alloc_intf.free !block)
  in
  Sim.run sim;
  a.Alloc_intf.check ();
  Alcotest.(check int) "pure-private: on the freeing thread's lists"
    (Size_class.size_of_class classes sclass)
    (Private_heaps.thread_free_bytes t ~tid:freer);
  Alcotest.(check bool) "pure-private: no pool lock" false (List.exists is_pool (lock_names sim));
  (* Private-threshold: 40 frees in one class overflow the threshold (32)
     into the pool; another thread's malloc on an empty list refills from
     it with one pool-lock acquisition. *)
  let sim = Sim.create ~nprocs:2 () in
  let t = Private_heaps.create `Private_threshold (Sim.platform sim) in
  let a = Private_heaps.allocator t in
  Alcotest.(check (list string))
    "private-threshold: locks in creation order"
    (List.init (Size_class.count classes) (Printf.sprintf "threshold.pool%d") @ [ "threshold.table"; "large" ] @ stripes)
    (lock_names sim);
  let pool_lock = Printf.sprintf "threshold.pool%d" sclass in
  let pool_acqs () =
    List.fold_left (fun acc (n, acqs, _) -> if n = pool_lock then acc + acqs else acc) 0 (Sim.lock_stats sim)
  in
  let b = Sim.new_barrier sim ~parties:2 in
  let pooled = ref 0 and refill_acqs = ref 0 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         List.iter a.Alloc_intf.free (List.init 40 (fun _ -> a.Alloc_intf.malloc 64));
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         pooled := Private_heaps.global_pool_blocks t ~sclass;
         let before = pool_acqs () in
         a.Alloc_intf.free (a.Alloc_intf.malloc 64);
         refill_acqs := pool_acqs () - before));
  Sim.run sim;
  a.Alloc_intf.check ();
  Alcotest.(check int) "private-threshold: pool after 40 frees" 17 !pooled;
  Alcotest.(check int) "private-threshold: one pool acquisition to refill" 1 !refill_acqs;
  Alcotest.(check int) "private-threshold: refill took half a threshold" (!pooled - 16)
    (Private_heaps.global_pool_blocks t ~sclass)

let test_threshold_flushes_to_global_pool () =
  let t = Private_heaps.create `Private_threshold (Platform.host ()) in
  let a = Private_heaps.allocator t in
  (* Free more than the threshold (32) in one class: the excess must land
     in the global pool. *)
  let ps = List.init 40 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let total_pool = ref 0 in
  for c = 0 to Size_class.count (Size_class.create ~max_small:4096 ()) - 1 do
    total_pool := !total_pool + Private_heaps.global_pool_blocks t ~sclass:c
  done;
  Alcotest.(check bool) (Printf.sprintf "pool has blocks (%d)" !total_pool) true (!total_pool > 0);
  a.Alloc_intf.check ()

(* A thread with a threshold takes its class pool's lock only when its
   free list is empty AND its carving superblock is full or absent — just
   before mapping a new one — not on every carve. Two threads each carve
   1,000 8 B blocks and then free them: the pool lock is taken once per
   superblock mapped, plus once per overflow flush. *)
let test_threshold_carving_skips_pool_lock () =
  let sim = Sim.create ~nprocs:2 () in
  let a = (Private_heaps.private_threshold ()).Alloc_intf.instantiate (Sim.platform sim) in
  let n = 1_000 in
  for p = 0 to 1 do
    ignore
      (Sim.spawn sim ~proc:p (fun () ->
           let blocks = List.init n (fun _ -> a.Alloc_intf.malloc 8) in
           List.iter a.Alloc_intf.free blocks))
  done;
  Sim.run sim;
  let pool_acquisitions =
    List.fold_left
      (fun acc (name, acq, _) -> if Astring.String.is_prefix ~affix:"threshold.pool" name then acc + acq else acc)
      0 (Sim.lock_stats sim)
  in
  (* A list past 32 blocks flushes down to 16. *)
  let flushes_per_thread =
    let flushes = ref 0 and len = ref 0 in
    for _ = 1 to n do
      incr len;
      if !len > 32 then begin
        incr flushes;
        len := 16
      end
    done;
    !flushes
  in
  let mapped = (a.Alloc_intf.stats ()).Alloc_stats.held_bytes / 8192 (* the baselines' superblock size *) in
  Alcotest.(check int) "pool locks: one per superblock mapped, one per flush"
    (mapped + (2 * flushes_per_thread))
    pool_acquisitions;
  a.Alloc_intf.check ()

let test_threshold_blowup_bounded () =
  (* Producer-consumer: freed blocks flow back through the global pool, so
     consumption stays bounded, unlike pure-private. *)
  let sim = Sim.create ~nprocs:2 () in
  let t = Private_heaps.create `Private_threshold (Sim.platform sim) in
  let a = Private_heaps.allocator t in
  let b = Sim.new_barrier sim ~parties:2 in
  let box = ref [] in
  let rounds = 40 and batch = 300 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for _ = 1 to rounds do
           box := List.init batch (fun _ -> a.Alloc_intf.malloc 64);
           Sim.barrier_wait b;
           Sim.barrier_wait b
         done));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         for _ = 1 to rounds do
           Sim.barrier_wait b;
           List.iter a.Alloc_intf.free !box;
           box := [];
           Sim.barrier_wait b
         done));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  let blowup = float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int s.Alloc_stats.peak_live_bytes in
  Alcotest.(check bool) (Printf.sprintf "blowup %.1fx bounded" blowup) true (blowup < 5.0)

let test_pure_private_no_locks_on_fast_path () =
  let sim = Sim.create ~nprocs:2 () in
  let t = Private_heaps.create `Pure_private (Sim.platform sim) in
  let a = Private_heaps.allocator t in
  for _ = 0 to 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 100 do
             a.Alloc_intf.free (a.Alloc_intf.malloc 64)
           done))
  done;
  Sim.run sim;
  (* The malloc/free fast path takes no lock: the only acquisitions are
     the heap-table lock (once per thread) and a registry stripe lock
     (once per superblock registration, a map-time event) — nothing
     proportional to the 200 operations. *)
  let maps = (a.Alloc_intf.stats ()).Alloc_stats.os_maps in
  let acqs = List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Sim.lock_stats sim) in
  Alcotest.(check bool)
    (Printf.sprintf "at most %d acquisitions (%d)" (2 + maps) acqs)
    true
    (acqs <= 2 + maps)

let () =
  Alcotest.run "baselines"
    [
      generic_suite "generic:serial" (Locked_heaps.serial ());
      generic_suite "generic:concurrent-single" (Locked_heaps.concurrent_single ());
      generic_suite "generic:pure-private" (Private_heaps.pure_private ());
      generic_suite "generic:private-ownership" (Locked_heaps.private_ownership ());
      generic_suite "generic:private-threshold" (Private_heaps.private_threshold ());
      generic_suite "generic:hoard" (Hoard.factory ());
      ( "family",
        [
          Alcotest.test_case "serial lock contention" `Quick test_serial_single_lock_contention;
          Alcotest.test_case "pure-private blowup" `Quick test_pure_private_blowup_unbounded;
          Alcotest.test_case "ownership blowup bounded" `Quick test_private_ownership_blowup_bounded_by_p;
          Alcotest.test_case "concurrent-single parallel classes" `Quick test_concurrent_single_classes_parallel;
          Alcotest.test_case "locked-heaps policies" `Quick test_locked_heaps_policies;
          Alcotest.test_case "private-heaps policies" `Quick test_private_heaps_policies;
          Alcotest.test_case "pure-private lock-free" `Quick test_pure_private_no_locks_on_fast_path;
          Alcotest.test_case "threshold flushes to pool" `Quick test_threshold_flushes_to_global_pool;
          Alcotest.test_case "threshold blowup bounded" `Quick test_threshold_blowup_bounded;
          Alcotest.test_case "threshold carving skips the pool lock" `Quick test_threshold_carving_skips_pool_lock;
        ] );
    ]
