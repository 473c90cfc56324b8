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
  let h = Hoard.create ~config:{ cfg with Hoard_config.release_threshold = max_int } pf in
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

(* A run that touches a single size class: the other classes have no
   fullness lists, and the heap dump, pinned byte for byte, lists only
   the class in use. *)
let test_pp_heaps_one_class () =
  let sim = Sim.create ~nprocs:2 () in
  let h = Hoard.create (Sim.platform sim) in
  let a = Hoard.allocator h in
  let shared = ref [] in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         let ps = List.init 3000 (fun _ -> a.Alloc_intf.malloc 24) in
         List.iteri (fun i p -> if i mod 10 <> 0 then a.Alloc_intf.free p else shared := p :: !shared) ps;
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         List.iteri (fun i p -> if i mod 2 = 0 then a.Alloc_intf.free p) !shared;
         ignore (List.init 40 (fun _ -> a.Alloc_intf.malloc 20))));
  Sim.run sim;
  a.Alloc_intf.check ();
  Alcotest.(check string) "pp_heaps"
    "global: 4 superblocks, u=1632B a=32768B (0 empty)\n\
    \  class   24B:  4 sb,   68/1352 blocks (5%)\n\
    \  \n\
     heap 1: 4 superblocks, u=1560B a=32768B (0 empty)\n\
    \  class   24B:  4 sb,   65/1352 blocks (5%)\n\
    \  \n\
     heap 2: 1 superblocks, u=1368B a=8192B (0 empty)\n\
    \  class   24B:  1 sb,   57/ 338 blocks (17%)\n\
    \  \n"
    (Format.asprintf "%a" Hoard.pp_heaps h)

(* Every simulated lock and atomic takes its cache line from creation
   order, so the names an allocator creates, in order, are part of every
   cycle count. Pinned as a count and a digest of the name list per
   factory (4 processors); print [names] to see it. *)
let test_creation_order_pinned () =
  let created label =
    let pf = Sim.platform (Sim.create ~nprocs:4 ()) in
    let names = ref [] in
    let pf =
      {
        pf with
        Platform.new_lock = (fun n -> names := ("lock " ^ n) :: !names; pf.Platform.new_lock n);
        new_atomic = (fun n v -> names := ("atomic " ^ n) :: !names; pf.Platform.new_atomic n v);
      }
    in
    ignore ((Option.get (Allocators.find label)).Alloc_intf.instantiate pf);
    let names = List.rev !names in
    (List.length names, Digest.to_hex (Digest.string (String.concat "\n" names)))
  in
  List.iter
    (fun (label, expected) -> Alcotest.(check (pair int string)) label expected (created label))
    [
      ("hoard", (70, "e5a401b147cf1b0bfccb53d6dec351d0"));
      ("hoard-fe", (75, "e15394710b2c79c04f14bad183983353"));
      ("hoard-gl", (79, "487eb6da3470a7c046d62a5df4c01021"));
    ]

(* Set-up size at 64 processors, per Hoard factory: the simulated objects
   building it creates, exactly, and the host words it allocates on the
   minor heap, bounded about 5% above the measured 17,804, 22,578 and
   41,486 words. Both are deterministic, unlike the set-up time the
   benchmark reports. hoard-gl builds only the empties stack of its
   global index and no large-cache bucket up front. *)
let test_setup_size_64p () =
  let measure label =
    let pf = Sim.platform (Sim.create ~nprocs:64 ()) in
    let n = ref 0 in
    let pf =
      {
        pf with
        Platform.new_lock =
          (fun s ->
            incr n;
            pf.Platform.new_lock s);
        new_atomic =
          (fun s v ->
            incr n;
            pf.Platform.new_atomic s v);
      }
    in
    let factory = Option.get (Allocators.find label) in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (factory.Alloc_intf.instantiate pf));
    (label, !n, Gc.minor_words () -. before)
  in
  let pins = [ ("hoard", 130, 18_700); ("hoard-fe", 195, 23_700); ("hoard-gl", 259, 43_600) ] in
  let measured = List.map (fun (label, _, _) -> measure label) pins in
  Alcotest.(check (list (pair string int)))
    "simulated objects"
    (List.map (fun (label, objects, _) -> (label, objects)) pins)
    (List.map (fun (label, objects, _) -> (label, objects)) measured);
  List.iter2
    (fun (label, _, max_words) (_, _, words) ->
      Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words <= %d" label words max_words) true
        (words <= float_of_int max_words))
    pins measured

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

(* Remote frees on the paper-exact path, timed by heap 1's hold spans.
   Proc 0 mallocs a block of each of [sizes] and writes them all; after a
   barrier proc 1 writes the blocks [rewrite] selects (by index), so their
   lines are in its own cache, then frees every block in order. Returns
   proc 1's hold spans of heap 1's lock, one per free. *)
let remote_free_hold_spans ~sizes ~rewrite =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let spans = ref [] in
  Sim.set_lock_hooks sim
    ~on_release:(fun ~name ~proc ~acquired_at ~at ->
      if name = "hoard.heap1" && proc = 1 then spans := (at - acquired_at) :: !spans)
    ();
  let a = Hoard.allocator (Hoard.create pf) in
  let blocks = ref [] in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         blocks := List.map (fun size -> (a.Alloc_intf.malloc size, size)) sizes;
         List.iter (fun (addr, len) -> pf.Platform.write ~addr ~len) !blocks;
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         List.iteri (fun i (addr, len) -> if rewrite i then pf.Platform.write ~addr ~len) !blocks;
         List.iter (fun (addr, _) -> a.Alloc_intf.free addr) !blocks));
  Sim.run sim;
  a.Alloc_intf.check ();
  List.rev !spans

(* The paper-exact free takes the freed block's line before it locks the
   owner heap, so a remote free's critical section holds no coherence miss
   on the block. Two blocks of two of heap 1's superblocks; proc 1 writes
   the first itself. Only the second is in another cache at its free, yet
   both hold heap 1's lock for the same span: the header writes and
   bookkeeping are alike, and neither in-lock link store misses. *)
let test_remote_free_miss_outside_owner_lock () =
  match remote_free_hold_spans ~sizes:[ 64; 512 ] ~rewrite:(fun i -> i = 0) with
  | [ own_line; remote_line ] -> Alcotest.(check int) "hold span independent of the block's cache" own_line remote_line
  | l -> Alcotest.failf "expected two heap-1 holds by proc 1, got %d" (List.length l)

(* The free also takes the superblock header's line before it locks the
   owner heap: it reads the owner from that header to pick the lock. Two
   blocks of superblock A, then one of B; proc 1 writes all three itself,
   so no block line misses. The first free into each superblock finds its
   header in proc 0's cache, the second into A in proc 1's, yet all three
   hold heap 1's lock for the same span: the header miss is paid before
   the lock. *)
let test_remote_free_header_miss_outside_owner_lock () =
  match remote_free_hold_spans ~sizes:[ 64; 64; 512 ] ~rewrite:(fun _ -> true) with
  | [ first_a; second_a; first_b ] ->
    Alcotest.(check int) "first free into A as the second" second_a first_a;
    Alcotest.(check int) "first free into B as the second into A" second_a first_b
  | l -> Alcotest.failf "expected three heap-1 holds by proc 1, got %d" (List.length l)

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

let test_explicit_nheaps_hashes_tids () =
  (* 8 threads on 2 processors: one heap per processor (nheaps = auto)
     picks by processor and uses 2 heaps; an explicit 8 heaps picks by
     thread-id hash and uses more of them. *)
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
  let by_proc = used_heaps { cfg with Hoard_config.nheaps = None } in
  let by_tid = used_heaps { cfg with Hoard_config.nheaps = Some 8 } in
  Alcotest.(check bool)
    (Printf.sprintf "tid hashing uses more heaps (%d > %d)" by_tid by_proc)
    true (by_tid > by_proc)

let test_heap_info_reconciles_with_stats () =
  let pf = Platform.host () in
  let h = Hoard.create ~config:{ cfg with Hoard_config.release_threshold = max_int } pf in
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
  let config = { cfg with Hoard_config.front_end = 8; release_threshold = max_int } in
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
      release_threshold = max_int;
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

let test_remote_forward_deferred () =
  (* The deferred-list twin: blocks waiting on heap 1's deferred list
     whose superblock then migrates to the lock-free global heap are
     parked by heap 1's next drain on heap 1's shard of the global heap —
     all of them with one CAS.
     Choreography: t0 frees everything but two SB1 blocks (t1's) and
     three keepers, then flushes; a gate on heap 1's lock holds that
     flush between its detach and its lock while t1 pushes the two SB1
     blocks onto heap 1's list. The flush's trims exile SB1 (2
     pending < the keepers' 3 live) with the two still waiting, and t0's
     next flush forwards them to the shard. *)
  let sim = Sim.create ~nprocs:2 () in
  let pf0 = Sim.platform sim in
  let obs = Obs.create () in
  let b = Sim.new_barrier sim ~parties:2 in
  let gate = ref false and counting = ref false and head_cas = ref 0 in
  let pf =
    {
      pf0 with
      Platform.new_lock =
        (fun name ->
          let l = pf0.Platform.new_lock name in
          if name <> "hoard.heap1" then l
          else
            {
              l with
              Platform.acquire =
                (fun () ->
                  if !gate then begin
                    (* Detached: let t1 push, then wait for it. *)
                    gate := false;
                    Sim.barrier_wait b;
                    Sim.barrier_wait b
                  end;
                  l.Platform.acquire ());
            });
      new_atomic =
        (fun name init ->
          let w = pf0.Platform.new_atomic name init in
          if name <> "hoard.dfl0.1.head" then w
          else
            {
              w with
              Platform.cas =
                (fun ~expected ~desired ->
                  let ok = w.Platform.cas ~expected ~desired in
                  (* A push swings the head to a block; the reclaim
                     that completes the shard swings it to 0. *)
                  if ok && !counting && desired <> 0 then incr head_cas;
                  ok);
            });
    }
  in
  let config =
    {
      (Option.get (Allocators.base_config "hoard-gl")) with
      Hoard_config.sb_size = 4096;
      nheaps = Some 2;
      slack = 0;
      release_threshold = max_int;
      front_end = 8;
    }
  in
  let h = Hoard.create ~config ~obs pf in
  let a = Hoard.allocator h in
  let sb_size = config.Hoard_config.sb_size in
  let groups = ref [] in
  let before = ref 0 and forwarded = ref 0 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         let ps = Array.init 200 (fun _ -> a.Alloc_intf.malloc 64) in
         let by_base = Hashtbl.create 8 in
         Array.iter
           (fun p ->
             let base = p - (p mod sb_size) in
             Hashtbl.replace by_base base (p :: (Option.value (Hashtbl.find_opt by_base base) ~default:[])))
           ps;
         groups := Hashtbl.fold (fun _ g acc -> g :: acc) by_base [] |> List.sort (fun x y -> compare (List.length y) (List.length x));
         Sim.barrier_wait b;
         match !groups with
         | sb1 :: rest ->
           let keep, free_now_ =
             match List.concat rest with
             | k1 :: k2 :: k3 :: tl -> ([ k1; k2; k3 ], tl)
             | _ -> Alcotest.fail "remote-forward: not enough blocks"
           in
           List.iter a.Alloc_intf.free (List.filteri (fun i _ -> i >= 2) sb1);
           List.iter a.Alloc_intf.free free_now_;
           gate := true;
           a.Alloc_intf.flush ();
           (* SB1 left heap 1 with two blocks on heap 1's list: this
              drain forwards them. *)
           before := (a.Alloc_intf.stats ()).Alloc_stats.remote_forwards;
           counting := true;
           a.Alloc_intf.flush ();
           counting := false;
           forwarded := (a.Alloc_intf.stats ()).Alloc_stats.remote_forwards - !before;
           List.iter a.Alloc_intf.free keep;
           a.Alloc_intf.flush ()
         | [] -> Alcotest.fail "remote-forward: no superblocks"));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         (* t0's flush detached heap 1's list and waits at the gate. *)
         Sim.barrier_wait b;
         (match !groups with
          | sb1 :: _ -> List.iter a.Alloc_intf.free (List.filteri (fun i _ -> i < 2) sb1)
          | [] -> Alcotest.fail "remote-forward: no superblocks");
         a.Alloc_intf.flush ();
         Sim.barrier_wait b));
  Sim.run sim;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "the bounded queues stay unused" 0 s.Alloc_stats.remote_enqueues;
  Alcotest.(check int) "the second flush forwards both blocks" 2 !forwarded;
  Alcotest.(check bool)
    (Printf.sprintf "forwards recorded (%d)" s.Alloc_stats.remote_forwards)
    true (s.Alloc_stats.remote_forwards > 0);
  let fwd_events =
    List.fold_left (fun acc (_, r) -> acc + Event_ring.recorded_kind r Event_ring.Remote_forward) 0 (Obs.rings obs)
  in
  Alcotest.(check int) "one event per forwarded block" s.Alloc_stats.remote_forwards fwd_events;
  Alcotest.(check int) "one push onto the shard for the whole forward" 1 !head_cas;
  Hoard.flush_caches h;
  a.Alloc_intf.check ();
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

(* --- batch calls through the front end --- *)

(* Runs [body] on processor 0 of a one-processor [Sim] over a fresh
   instance [h] of [config]; [heap_locks ()] inside [body] returns the
   names of the hoard.heapN locks acquired since the previous call, in
   order. Ends in [check]. *)
let batch_run config body =
  let sim = Sim.create ~nprocs:1 () in
  let pf = Sim.platform sim in
  let acqs = ref [] in
  Sim.set_lock_hooks sim
    ~on_acquire:(fun ~name ~proc:_ ~spins:_ ~at:_ ->
      if String.starts_with ~prefix:"hoard.heap" name then acqs := name :: !acqs)
    ();
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let heap_locks () =
    let names = List.rev !acqs in
    acqs := [];
    names
  in
  ignore (Sim.spawn sim ~proc:0 (fun () -> body pf h a heap_locks));
  Sim.run sim;
  Hoard.check h

let sorted a = List.sort compare (Array.to_list a)

(* Both register a 16-block front end. *)
let batch_configs = List.map (fun label -> (label, Option.get (Allocators.base_config label))) [ "hoard-fe"; "hoard-gl" ]

(* Blocks a batch free leaves in the thread cache serve the next batch
   malloc of their class with no heap lock; only the part of a batch the
   cache cannot cover takes the calling thread's heap, in one
   acquisition that also leaves [cap/2] blocks cached, as a single
   malloc's miss does. A heap-0 lock taken to refill the heap is not
   counted. *)
let test_malloc_batch_serves_from_cache () =
  List.iter
    (fun (label, config) ->
      let fe = config.Hoard_config.front_end in
      let cap = max fe (fe * 16 / 64) in
      let k = cap / 2 in
      batch_run config (fun _ h a heap_locks ->
          let sclass = Size_class.class_of_size (Hoard.size_classes h) 64 in
          let cached () = List.fold_left (fun n (_, counts) -> n + counts.(sclass)) 0 (Hoard.cache_counts h) in
          let ps = a.Alloc_intf.malloc_batch k 64 in
          a.Alloc_intf.free_batch ps;
          ignore (heap_locks ());
          let qs = a.Alloc_intf.malloc_batch k 64 in
          Alcotest.(check (list string)) (label ^ ": cached batch takes no heap lock") [] (heap_locks ());
          Alcotest.(check (list int)) (label ^ ": the cached blocks come back") (sorted ps) (sorted qs);
          a.Alloc_intf.free_batch qs;
          Alcotest.(check int) (label ^ ": the cache is full") cap (cached ());
          ignore (heap_locks ());
          let rs = a.Alloc_intf.malloc_batch (cap + 5) 64 in
          Alcotest.(check int)
            (label ^ ": the remainder takes the thread's heap lock once")
            1
            (List.length (List.filter (String.equal "hoard.heap1") (heap_locks ())));
          Alcotest.(check int) (label ^ ": distinct blocks") (cap + 5) (List.length (List.sort_uniq compare (sorted rs)));
          Alcotest.(check int) (label ^ ": the miss leaves cap/2 cached") k (cached ());
          let ss = a.Alloc_intf.malloc_batch k 64 in
          Alcotest.(check (list string)) (label ^ ": the next cap/2 take no heap lock") [] (heap_locks ());
          a.Alloc_intf.free_batch rs;
          a.Alloc_intf.free_batch ss))
    batch_configs;
  batch_run cfg (fun _ _ a heap_locks ->
      let ps = a.Alloc_intf.malloc_batch 8 64 in
      a.Alloc_intf.free_batch ps;
      ignore (heap_locks ());
      ignore (a.Alloc_intf.malloc_batch 8 64);
      Alcotest.(check int) "no front end: one heap lock per batch" 1 (List.length (heap_locks ())))

(* Every call that takes in a heap's remote frees is a free into that
   heap, so it must leave the emptiness invariant holding. Thread A
   mallocs 2,000 blocks of 64 B from heap 1; thread B frees them all and
   flushes, which leaves them on heap 1's remote-free channel; then A
   makes one call that drains the channel, allocating in another class
   if it allocates at all. *)
let test_invariant_at_every_drain () =
  let entries =
    [
      ("malloc", fun a -> ignore (a.Alloc_intf.malloc 2048));
      ("malloc_batch", fun a -> ignore (a.Alloc_intf.malloc_batch 1 2048));
      ("flush", fun a -> a.Alloc_intf.flush ());
    ]
  in
  List.iter
    (fun (label, config) ->
      List.iter
        (fun (entry, call) ->
          let what = Printf.sprintf "%s, %s" label entry in
          let sim = Sim.create ~nprocs:2 () in
          let b = Sim.new_barrier sim ~parties:2 in
          let h = Hoard.create ~config (Sim.platform sim) in
          let a = Hoard.allocator h in
          let blocks = ref [||] and queued = ref 0 and before = ref false and after = ref false in
          ignore
            (Sim.spawn sim ~proc:0 (fun () ->
                 blocks := Array.init 2000 (fun _ -> a.Alloc_intf.malloc 64);
                 Sim.barrier_wait b;
                 Sim.barrier_wait b;
                 queued := (Hoard.remote_queue_lengths h).(1);
                 before := Hoard.invariant_holds h ~heap_id:1;
                 call a;
                 after := Hoard.invariant_holds h ~heap_id:1));
          ignore
            (Sim.spawn sim ~proc:1 (fun () ->
                 Sim.barrier_wait b;
                 Array.iter a.Alloc_intf.free !blocks;
                 a.Alloc_intf.flush ();
                 Sim.barrier_wait b));
          Sim.run sim;
          Alcotest.(check bool) (what ^ ": heap 1's channel holds the frees") true (!queued > 0);
          Alcotest.(check bool) (what ^ ": the invariant holds before") true !before;
          Alcotest.(check bool) (what ^ ": the invariant holds after the drain") true !after;
          Alcotest.(check int) (what ^ ": the channel is drained") 0 (Hoard.remote_queue_lengths h).(1);
          Hoard.check h)
        entries)
    batch_configs

(* A batch free is the single free per block: the same double-free and
   foreign-pointer errors, and, while the cache absorbs every block, the
   same cycles but for the per-call [path_work] it pays once. *)
let test_free_batch_keeps_free_contract () =
  List.iter
    (fun (label, config) ->
      let a = Hoard.allocator (Hoard.create ~config (Platform.host ())) in
      let p = a.Alloc_intf.malloc 64 in
      Alcotest.check_raises (label ^ ": double free in one batch") (Failure "Hoard.free: double free (cached)")
        (fun () -> a.Alloc_intf.free_batch [| p; p |]);
      Alcotest.check_raises (label ^ ": foreign pointer") (Invalid_argument "Hoard.free: foreign pointer")
        (fun () -> a.Alloc_intf.free_batch [| 12345 |]);
      let n = 8 in
      let free_cycles free =
        let spent = ref 0 in
        batch_run config (fun pf _ a _ ->
            let ps = a.Alloc_intf.malloc_batch n 64 in
            let t0 = pf.Platform.now () in
            free a ps;
            spent := pf.Platform.now () - t0);
        !spent
      in
      let singles = free_cycles (fun a ps -> Array.iter a.Alloc_intf.free ps) in
      let batch = free_cycles (fun a ps -> a.Alloc_intf.free_batch ps) in
      Alcotest.(check int)
        (Printf.sprintf "%s: batch free saves (n-1) path_work (%d vs %d cycles)" label batch singles)
        ((n - 1) * Hoard.path_work)
        (singles - batch))
    batch_configs

(* A class's front-end capacity is sized in bytes: a thread caches
   [max fe (fe * 16 / block)] blocks per class, fills [cap/2] of them
   beyond the one it returns, and flushes down to [cap/2]. So 8 B
   blocks get 2·fe and every class of 16 B or more exactly fe. After an
   explicit flush the cache is empty; one malloc fills it, and a run of
   frees fills it to the cap before its first eviction. *)
let test_class_capacity_in_bytes () =
  List.iter
    (fun (label, config) ->
      let fe = config.Hoard_config.front_end in
      let h = Hoard.create ~config (Platform.host ()) in
      let a = Hoard.allocator h in
      let classes = Hoard.size_classes h in
      let cached sclass =
        match Hoard.cache_counts h with
        | [ (_, counts) ] -> counts.(sclass)
        | l -> Alcotest.failf "%s: %d thread caches, one expected" label (List.length l)
      in
      List.iter
        (fun (size, cap) ->
          let sclass = Size_class.class_of_size classes size in
          let what fmt = Printf.sprintf ("%s, %d B: " ^^ fmt) label size in
          let ps = Array.init (2 * cap) (fun _ -> a.Alloc_intf.malloc size) in
          a.Alloc_intf.flush ();
          Alcotest.(check int) (what "flush empties the cache") 0 (cached sclass);
          let p = a.Alloc_intf.malloc size in
          Alcotest.(check int) (what "a fill caches cap/2") (cap / 2) (cached sclass);
          a.Alloc_intf.flush ();
          for i = 0 to cap - 1 do
            a.Alloc_intf.free ps.(i)
          done;
          Alcotest.(check int) (what "the cap's worth of frees, no eviction") cap (cached sclass);
          a.Alloc_intf.free ps.(cap);
          Alcotest.(check int) (what "the next free evicts down to cap/2") ((cap / 2) + 1) (cached sclass);
          for i = cap + 1 to (2 * cap) - 1 do
            a.Alloc_intf.free ps.(i)
          done;
          a.Alloc_intf.free p;
          a.Alloc_intf.flush ())
        [ (8, 2 * fe); (16, fe); (64, fe) ];
      Hoard.flush_caches h;
      Hoard.check h;
      Alcotest.(check int) (label ^ ": nothing live") 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes)
    batch_configs

(* [Hoard.check] validates the bounded queue's blocks as it does a
   deferred list's. Under [hoard-fe], thread 0 (heap 1) allocates 20
   blocks and thread 1 (heap 2) frees them and flushes, so all 20 wait
   on heap 1's queue; the check passes, and fails once one of them loses
   its custody mark. *)
let test_check_walks_queue () =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let config = { (Option.get (Allocators.base_config "hoard-fe")) with Hoard_config.nheaps = Some 2 } in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:2 in
  let blocks = ref [||] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         blocks := Array.init 20 (fun _ -> a.Alloc_intf.malloc 64);
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         Array.iter a.Alloc_intf.free !blocks;
         a.Alloc_intf.flush ()));
  Sim.run sim;
  Alcotest.(check int) "20 blocks queued on heap 1" 20 (Hoard.remote_queue_lengths h).(1);
  Hoard.check h;
  let addr = !blocks.(7) in
  Superblock.clear_cached (Option.get (Hoard.lookup h addr)) addr;
  match Hoard.check h with
  | () -> Alcotest.fail "Hoard.check must reject a queued block without its custody mark"
  | exception Failure msg ->
    Alcotest.(check bool) ("names the custody mark: " ^ msg) true
      (Astring.String.is_infix ~affix:"without custody mark" msg)

(* [Hoard.check] walks every thread cache as it walks the channels: the
   test caches 10 freed blocks, the check passes, and it fails once one
   of them loses its custody mark. *)
let test_check_walks_thread_caches () =
  List.iter
    (fun (label, config) ->
      let h = Hoard.create ~config (Platform.host ()) in
      let a = Hoard.allocator h in
      let ps = Array.init 10 (fun _ -> a.Alloc_intf.malloc 64) in
      Array.iter a.Alloc_intf.free ps;
      Alcotest.(check int) (label ^ ": 10 blocks cached") 10
        (List.fold_left (fun n (_, counts) -> n + Array.fold_left ( + ) 0 counts) 0 (Hoard.cache_counts h));
      Hoard.check h;
      let addr = ps.(3) in
      Superblock.clear_cached (Option.get (Hoard.lookup h addr)) addr;
      match Hoard.check h with
      | () -> Alcotest.failf "%s: Hoard.check must reject a cached block without its custody mark" label
      | exception Failure msg ->
        Alcotest.(check bool) (label ^ ": names the custody mark: " ^ msg) true
          (Astring.String.is_infix ~affix:"without custody mark" msg))
    batch_configs

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
    { cfg with Hoard_config.global = Hoard_config.Lockfree; slack = 0; release_threshold = max_int }
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

let test_global_lockfree_profile_row () =
  (* The heatmap's global row reads the global heap's members: under the
     lock-free index they live in the index, not in a heap-0 core. *)
  let pf = Platform.host () in
  let config =
    { cfg with Hoard_config.global = Hoard_config.Lockfree; slack = 0; release_threshold = max_int }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let ps = List.init 3000 (fun _ -> a.Alloc_intf.malloc 64) in
  List.iter a.Alloc_intf.free ps;
  let label, row = (Hoard.fullness_profile h).(0) in
  Alcotest.(check string) "row 0 is the global heap" "global" label;
  let members = (Hoard.heap_info h 0).Hoard.superblocks in
  Alcotest.(check bool) "the index holds the exiles" true (members > 0);
  Alcotest.(check int) "row 0 counts every index member" members
    (Array.fold_left (fun acc (n, _) -> acc + n) 0 row);
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
  let locked = { cfg with Hoard_config.front_end = 16; slack = 0 } in
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
          release_threshold = max_int;
          front_end = 4;
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
  let h = Hoard.create ~config:{ Hoard_config.default with large_cache = 4 } pf in
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

(* Every page count the cache buckets (2 to 16 pages above the S/2
   threshold): each freed region parks in the bucket of its own size,
   which [Hoard.check] verifies against the region's mapped size, and a
   take hands back a region that size. *)
let test_large_cache_buckets_by_size () =
  let pf = Platform.host () in
  let h = Hoard.create ~config:{ Hoard_config.default with large_cache = 4 } pf in
  let a = Hoard.allocator h in
  let page = pf.Platform.page_size in
  let sizes = List.init 15 (fun i -> ((i + 1) * page) + 1) in
  let ps = List.map a.Alloc_intf.malloc sizes in
  List.iter a.Alloc_intf.free ps;
  Alcotest.(check int) "every region parked" (List.length sizes) (Hoard.large_cache_length h);
  Hoard.check h;
  let qs = List.map a.Alloc_intf.malloc (List.rev sizes) in
  Alcotest.(check int) "every region taken back" 0 (Hoard.large_cache_length h);
  List.iter2
    (fun size q ->
      Alcotest.(check (option int))
        (Printf.sprintf "%d B served by a region of its own page count" size)
        (Some (((size + page - 1) / page) * page))
        (pf.Platform.region_bytes ~addr:q))
    (List.rev sizes) qs;
  List.iter a.Alloc_intf.free qs;
  Hoard.check h;
  Platform.host_release pf

(* The remote-free channel follows the configuration: none without a
   front end, else the bounded queue under the locked global heap and the
   deferred list under the lock-free one. *)
let test_channel_follows_global () =
  let pf = Platform.host () in
  let classes = Size_class.create ~max_small:(Hoard_config.max_small cfg) () in
  let stats = Alloc_stats.create ~shards:2 () in
  let channel ~front_end global = Heap.channel_name (Heap.create pf { cfg with Hoard_config.front_end; global } ~classes ~stats 1) in
  Alcotest.(check string) "no front end, locked" "none" (channel ~front_end:0 Hoard_config.Locked);
  Alcotest.(check string) "no front end, lock-free" "none" (channel ~front_end:0 Hoard_config.Lockfree);
  Alcotest.(check string) "front end, locked" "queue" (channel ~front_end:4 Hoard_config.Locked);
  Alcotest.(check string) "front end, lock-free" "list" (channel ~front_end:4 Hoard_config.Lockfree);
  Platform.host_release pf

(* The deferred remote-free lists: a consumer's flushed remote frees are
   CAS pushes (no remote-queue enqueues), and the owner's next fill
   reclaims them in one exchange. *)
let test_deferred_lists_reclaim () =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let h =
    Hoard.create ~config:{ Hoard_config.default with front_end = 4; global = Lockfree } pf
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

(* The own-heap cap on deferred lists: a thread that frees 256 of its
   own blocks with no fill in between evicts them onto its own heap's
   list, which must stay within [remote_queue_cap] (the overflow takes
   the locked path). The remote twin: another heap's thread freeing the
   same blocks pushes uncapped, and the owner's list does grow past the
   cap. Returns the longest the owner's list got. *)
let deferred_backlog ~remote =
  let config =
    { (Option.get (Allocators.base_config "hoard-gl")) with Hoard_config.front_end = 4; remote_queue_cap = 16 }
  in
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let barrier = Sim.new_barrier sim ~parties:2 in
  (* Processor p allocates from heap p + 1: the owner is heap 1. *)
  let owner = 1 in
  let box = ref [||] and longest = ref 0 in
  let free_all () =
    Array.iter
      (fun p ->
        a.Alloc_intf.free p;
        let len = (Hoard.remote_queue_lengths h).(owner) in
        longest := max !longest len;
        if not remote then
          Alcotest.(check bool) "own list within the cap" true (len <= config.Hoard_config.remote_queue_cap))
      !box
  in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         box := Array.init 256 (fun _ -> a.Alloc_intf.malloc 64);
         if not remote then free_all ();
         Sim.barrier_wait barrier;
         Sim.barrier_wait barrier));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait barrier;
         if remote then free_all ();
         Sim.barrier_wait barrier));
  Sim.run sim;
  Hoard.check h;
  Hoard.flush_caches h;
  Hoard.check h;
  Alcotest.(check int) "nothing live" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
  !longest

let test_own_deferred_backlog_bounded () =
  let longest = deferred_backlog ~remote:false in
  Alcotest.(check bool) (Printf.sprintf "own evictions used the list (%d)" longest) true (longest > 0)

let test_remote_deferred_backlog_uncapped () =
  let longest = deferred_backlog ~remote:true in
  Alcotest.(check bool) (Printf.sprintf "remote pushes passed the cap (%d)" longest) true (longest > 16)

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
        (Array.fold_left ( + ) 0 (Hoard.remote_queue_lengths h));
      Alcotest.(check int) (label ^ ": header written once") 1
        (Option.value ~default:0 (Hashtbl.find_opt header_writes base));
      Hoard.flush_caches h;
      Hoard.check h)
    [ "hoard-gl" ]

(* [Heap.run_ends]: the last block of each maximal stretch of one
   superblock's blocks, in chain order. A run end whose superblock runs
   again later is a join. *)
let test_run_ends () =
  let sb i = Superblock.create ~base:(i * 8192) ~sb_size:8192 ~sclass:0 ~block_size:64 in
  let a = sb 1 and b = sb 2 and c = sb 3 in
  let ends chain = List.map snd (Heap.run_ends chain) in
  let check name expected chain = Alcotest.(check (list int)) name expected (ends chain) in
  check "empty chain" [] [];
  check "single block" [ 1 ] [ (a, 1) ];
  check "one superblock, one run" [ 3 ] [ (a, 1); (a, 2); (a, 3) ];
  check "A A B B" [ 2; 4 ] [ (a, 1); (a, 2); (b, 3); (b, 4) ];
  check "A B A" [ 1; 2; 3 ] [ (a, 1); (b, 2); (a, 3) ];
  check "every block its own superblock" [ 1; 2; 3 ] [ (a, 1); (b, 2); (c, 3) ];
  (* A B A: three runs over two superblocks, so one join. *)
  let runs = Heap.run_ends [ (a, 1); (b, 2); (a, 3) ] in
  Alcotest.(check int) "A B A: one join" 1
    (List.length runs - List.length (List.sort_uniq compare (List.map (fun (sb, _) -> Superblock.base sb) runs)))

(* The owner-side drain writes every link it can before taking the heap
   lock and splices the batch under the lock: of a batch from S
   superblocks, only S free-list links (the ones that point at each
   superblock's current head) and S headers are written while the heap
   lock is held. The channels differ before the lock. A bounded-queue
   batch carries no links: the drain writes the other N - S. A deferred
   chain (hoard-gl) arrives linked: each free wrote its block's link to
   the block cached before it, so the flush's push writes only the tail
   link, which depends on the list's head. Its consecutive blocks of
   one superblock already form that superblock's free list: of R runs,
   the drain writes only the R - S that join a later run of their
   superblock. The consumer frees the
   blocks in superblock order but for the first block, freed last, so
   its superblock falls into two runs and the drain makes one join. *)
let test_drain_splices_under_lock () =
  List.iter
    (fun label ->
      let config = Option.get (Allocators.base_config label) in
      let sim = Sim.create ~nprocs:2 () in
      let pf0 = Sim.platform sim in
      let sb_size = config.Hoard_config.sb_size in
      let box = ref [||] in
      let pushing = ref false and draining = ref false and held = ref false in
      let links_pushed = ref 0 and links_before = ref 0 and links_held = ref [] and headers_held = ref 0 in
      let pf =
        {
          pf0 with
          Platform.write =
            (fun ~addr ~len ->
              if len = 8 && Array.mem addr !box then begin
                if !pushing then incr links_pushed;
                if !draining then if !held then links_held := addr :: !links_held else incr links_before
              end;
              if !draining && !held && len = 16 && Array.exists (fun a -> a - (a mod sb_size) = addr) !box then
                incr headers_held;
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
             let sorted = List.sort compare (List.init n (fun i -> all.(2 * i))) in
             box := Array.of_list (List.tl sorted @ [ List.hd sorted ]);
             Sim.barrier_wait barrier;
             (* The consumer freed and flushed: all n blocks wait on heap
                1's remote-free channel. A fill of another class drains
                them. *)
             Sim.barrier_wait barrier;
             draining := true;
             ignore (a.Alloc_intf.malloc 64);
             draining := false));
      ignore
        (Sim.spawn sim ~proc:1 (fun () ->
             Sim.barrier_wait barrier;
             (* Each free caches its block, one write of its first word;
                the flush evicts them all onto the owner's channel. *)
             Array.iter a.Alloc_intf.free !box;
             pushing := true;
             a.Alloc_intf.flush ();
             pushing := false;
             Sim.barrier_wait barrier));
      Sim.run sim;
      let base x = x - (x mod sb_size) in
      let s = List.length (List.sort_uniq compare (Array.to_list (Array.map base !box))) in
      (* The runs of the free order; the chain is its reverse. *)
      let r = 1 + List.length (List.filter (fun i -> base !box.(i) <> base !box.(i - 1)) (List.init (n - 1) succ)) in
      Alcotest.(check bool) (label ^ ": the batch spans several superblocks") true (s >= 2);
      Alcotest.(check bool) (label ^ ": a superblock falls into two runs") true (r > s);
      Alcotest.(check int) (label ^ ": the fill drained the channel") 0
        (Array.fold_left ( + ) 0 (Hoard.remote_queue_lengths h));
      if config.Hoard_config.global = Hoard_config.Lockfree then begin
        Alcotest.(check int) (label ^ ": the push writes only the tail link") 1 !links_pushed;
        Alcotest.(check int) (label ^ ": one join per run end before the lock") (r - s) !links_before
      end
      else begin
        Alcotest.(check int) (label ^ ": no link written by the push") 0 !links_pushed;
        Alcotest.(check int) (label ^ ": the other links before the lock") (n - s) !links_before
      end;
      (* Both channels leave each superblock's first-freed block stale:
         the queue keeps the free order and the chain reverses it. *)
      let first_freed =
        List.rev
          (Array.fold_left
             (fun acc x -> if List.exists (fun y -> base y = base x) acc then acc else x :: acc)
             [] !box)
      in
      Alcotest.(check (list int))
        (label ^ ": under the lock, the link of each superblock's first-freed block")
        (List.sort compare first_freed) (List.sort compare !links_held);
      Alcotest.(check int) (label ^ ": one header per superblock under the lock") s !headers_held;
      Hoard.flush_caches h;
      Hoard.check h)
    [ "hoard-gl"; "hoard-fe" ]

(* Regression: the lock-free global reclaim charged a block's size to the
   stats AFTER freeing it into the index, by when a peer could have
   claimed the emptied superblock and reinitialised it for another class.
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
   after the refill, and [remote_queue_lengths.(0)] at the first of
   those points. *)
let global_free_shard_run ~flush =
  let sim = Sim.create ~nprocs:3 () in
  let pf = Sim.platform sim in
  let config =
    {
      cfg with
      Hoard_config.nheaps = Some 3;
      front_end = 0;
      release_threshold = max_int;
      global = Hoard_config.Lockfree;
    }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:3 in
  let blocks = ref [||] in
  let after_free = ref [] and after_refill = ref [] and rq0 = ref 0 in
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
         rq0 := (Hoard.remote_queue_lengths h).(0);
         ignore (a.Alloc_intf.malloc 256);
         after_refill := global_free_blocks h;
         Sim.barrier_wait b));
  Sim.run sim;
  (h, a, !blocks, !after_free, !after_refill, !rq0)

let test_global_free_parks_on_freeing_heap () =
  let h, a, blocks, after_free, after_refill, rq0 = global_free_shard_run ~flush:true in
  Alcotest.(check (list (pair int int))) "parked on heap 2's shard" [ (2, blocks.(0)) ] after_free;
  Alcotest.(check int) "remote_queue_lengths.(0) sums the shards" 1 rq0;
  Alcotest.(check (list (pair int int))) "heap 3's refill leaves it on heap 2's shard" [ (2, blocks.(0)) ]
    after_refill;
  (* Heap 2's flush reclaimed its shard through the Busy handshake. *)
  Alcotest.(check (list (pair int int))) "heap 2's flush completed it" [] (global_free_blocks h);
  Alcotest.(check int) "shards summed empty" 0 (Hoard.remote_queue_lengths h).(0);
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

(* The lock-free global reclaim writes one link per chain run inside the
   Busy window, not one per block. Thread 0 (heap 1) allocates two
   superblocks' worth of 1 KiB blocks and exits, so adoption publishes
   both to the index. Thread 1 (heap 2) frees a1 a2 b1 a3 — each free
   parks on heap 2's shard — and flushes: the shard's chain is a3 b1 a2
   a1, three runs over two superblocks, so the reclaim writes three
   links for four blocks and one header per superblock. *)
let test_gl_reclaim_links_per_run () =
  let sim = Sim.create ~nprocs:2 () in
  let pf0 = Sim.platform sim in
  let config =
    { cfg with Hoard_config.nheaps = Some 2; front_end = 0; release_threshold = max_int; global = Hoard_config.Lockfree }
  in
  let sb_size = config.Hoard_config.sb_size in
  let counting = ref false and freed = ref [] and links = ref 0 and headers = ref 0 in
  let pf =
    {
      pf0 with
      Platform.write =
        (fun ~addr ~len ->
          if !counting then begin
            if len = 8 && List.mem addr !freed then incr links;
            if len = 16 && List.exists (fun x -> x - (x mod sb_size) = addr) !freed then incr headers
          end;
          pf0.Platform.write ~addr ~len);
    }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:2 in
  let blocks = ref [||] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         let per_sb = (sb_size - Superblock.header_bytes) / 1024 in
         blocks := Array.init (2 * per_sb) (fun _ -> a.Alloc_intf.malloc 1024);
         a.Alloc_intf.thread_exit ();
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         let base x = x - (x mod sb_size) in
         let sorted = List.sort compare (Array.to_list !blocks) in
         let sb_a = base (List.hd sorted) in
         let in_a, in_b = List.partition (fun x -> base x = sb_a) sorted in
         (match (in_a, in_b) with
          | a1 :: a2 :: a3 :: _, b1 :: _ -> freed := [ a1; a2; b1; a3 ]
          | _ -> Alcotest.fail "gl reclaim: two superblocks of blocks expected");
         List.iter a.Alloc_intf.free !freed;
         counting := true;
         a.Alloc_intf.flush ();
         counting := false));
  Sim.run sim;
  Alcotest.(check (list (pair int int))) "the flush reclaimed the shard" [] (global_free_blocks h);
  Alcotest.(check int) "one link per run" 3 !links;
  Alcotest.(check int) "one header per superblock" 2 !headers;
  Hoard.check h

(* A platform that counts, while [counting], the 8 B writes and the
   pushes onto deferred lists (a CAS that swings a list head to a
   block), and stops counting at the first reclaim (a CAS that empties a
   head): what a flush's surrender writes, not its drain. *)
let surrender_counter pf0 =
  let counting = ref false and links = ref 0 and pushes = ref 0 in
  let pf =
    {
      pf0 with
      Platform.write =
        (fun ~addr ~len ->
          if !counting && len = 8 then incr links;
          pf0.Platform.write ~addr ~len);
      new_atomic =
        (fun name init ->
          let at = pf0.Platform.new_atomic name init in
          if not (Astring.String.is_suffix ~affix:".head" name) then at
          else
            {
              at with
              Platform.cas =
                (fun ~expected ~desired ->
                  let ok = at.Platform.cas ~expected ~desired in
                  if ok && !counting then if desired = 0 then counting := false else incr pushes;
                  ok);
            });
    }
  in
  (pf, counting, links, pushes)

(* The link writes of a flush's surrender. One thread of a one-processor
   hoard-gl instance (K = 16) mallocs nine 1 KiB blocks, the first
   miss's block and the eight its fill cached, so the class's cache ends
   empty; the blocks span two superblocks (seven per 8 KiB superblock).
   [body] then frees some of them back into the cache, and the flush
   pushes them onto the heap's own list. With [remote_queue_cap] below
   the batch that push bails and the flush takes the locked disposal.
   Returns the 8 B writes and the list pushes of the surrender. *)
let flush_link_writes ?remote_queue_cap body =
  let config = Option.get (Allocators.base_config "hoard-gl") in
  let config =
    {
      config with
      Hoard_config.nheaps = None;
      remote_queue_cap = Option.value remote_queue_cap ~default:config.Hoard_config.remote_queue_cap;
    }
  in
  let sim = Sim.create ~nprocs:1 () in
  let pf, counting, links, pushes = surrender_counter (Sim.platform sim) in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         let blocks = List.sort compare (List.init 9 (fun _ -> a.Alloc_intf.malloc 1024)) in
         let base x = x - (x mod config.Hoard_config.sb_size) in
         body a (List.partition (fun x -> base x = base (List.hd blocks)) blocks);
         Hoard.check h;
         counting := true;
         a.Alloc_intf.flush ();
         counting := false));
  Sim.run sim;
  Hoard.check h;
  (!links, !pushes)

(* A burst of frees from one superblock reaches the flush as a chain its
   frees already linked, each block to the one freed before it: the
   own-heap list push and the locked disposal each write one link, the
   run's last, which depends on the head it joins. *)
let test_flushed_burst_writes_one_link () =
  let burst a (in_a, _) = List.iteri (fun i x -> if i < 4 then a.Alloc_intf.free x) in_a in
  Alcotest.(check (pair int int)) "own-heap list: one link, one push" (1, 1) (flush_link_writes burst);
  Alcotest.(check (pair int int)) "locked disposal: one link, no push" (1, 0)
    (flush_link_writes ~remote_queue_cap:2 burst)

(* Frees a1 a2 b1 a3 a4 over two superblocks: newest first, the chain is
   a4 a3 b1 a2 a1, three runs. A list push keeps every link the frees
   wrote, so it writes only the tail's; the locked disposal rebuilds
   each superblock's free list, so it writes each run's end: a3, b1 and
   a1. *)
let test_flushed_runs_write_one_link_each () =
  let interleaved a = function
    | a1 :: a2 :: a3 :: a4 :: _, b1 :: _ -> List.iter a.Alloc_intf.free [ a1; a2; b1; a3; a4 ]
    | _ -> Alcotest.fail "two superblocks of blocks expected"
  in
  Alcotest.(check (pair int int)) "own-heap list: the tail link only" (1, 1) (flush_link_writes interleaved);
  Alcotest.(check (pair int int)) "locked disposal: one link per run" (3, 0)
    (flush_link_writes ~remote_queue_cap:2 interleaved)

(* A pop takes the class's top block, and the next free links to the
   top left below it: frees a1 a2, a malloc that pops a2, then a free
   of a3 leave the chain a3 a1, still linked. The popped block carries
   no stale link into the flush. *)
let test_pop_between_frees_keeps_chain_linked () =
  let with_pop a (in_a, _) =
    match in_a with
    | a1 :: a2 :: a3 :: _ ->
      a.Alloc_intf.free a1;
      a.Alloc_intf.free a2;
      Alcotest.(check int) "the pop returns the newest" a2 (a.Alloc_intf.malloc 1024);
      a.Alloc_intf.free a3
    | _ -> Alcotest.fail "three blocks of one superblock expected"
  in
  Alcotest.(check (pair int int)) "own-heap list: one link" (1, 1) (flush_link_writes with_pop);
  Alcotest.(check (pair int int)) "locked disposal: one link" (1, 0) (flush_link_writes ~remote_queue_cap:1 with_pop)

(* A fill caches blocks it never writes, so their words hold no link:
   flushing a fill's surplus writes every block's link. The 64 B class
   caches K = 16 blocks, so its first miss caches eight. *)
let test_fill_blocks_always_written () =
  let only_fill a _ = ignore (a.Alloc_intf.malloc 64) in
  Alcotest.(check (pair int int)) "own-heap list: one link per block" (8, 1) (flush_link_writes only_fill);
  Alcotest.(check (pair int int)) "locked disposal: one link per block" (8, 0)
    (flush_link_writes ~remote_queue_cap:4 only_fill)

(* Blocks of a global superblock, freed into a cache and flushed, park on
   the freeing heap's shard of the global-free list in one push that
   writes only the tail link. Thread 0 (heap 1) mallocs four 1 KiB
   blocks and exits, so adoption publishes their superblock to the
   lock-free index; thread 1 (heap 2) frees them and flushes. *)
let test_flushed_park_writes_one_link () =
  let config = { (Option.get (Allocators.base_config "hoard-gl")) with Hoard_config.nheaps = None } in
  let sim = Sim.create ~nprocs:2 () in
  let pf, counting, links, pushes = surrender_counter (Sim.platform sim) in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let b = Sim.new_barrier sim ~parties:2 in
  let blocks = ref [] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         blocks := List.init 4 (fun _ -> a.Alloc_intf.malloc 1024);
         a.Alloc_intf.thread_exit ();
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         Alcotest.(check bool) "a global superblock" true
           (List.for_all (fun x -> Superblock.owner (Option.get (Hoard.lookup h x)) = 0) !blocks);
         List.iter a.Alloc_intf.free !blocks;
         counting := true;
         a.Alloc_intf.flush ();
         counting := false));
  Sim.run sim;
  Alcotest.(check (pair int int)) "one link, one push" (1, 1) (!links, !pushes);
  Hoard.check h

(* A free-only run of one class on one heap past a small own cap: K = 4,
   so the 64 B class caches 4 blocks, and [remote_queue_cap] = 2. Once
   the own channel is full, every eviction's own-heap push is rejected
   and takes the locked disposal, and it takes the class's kept half
   along: the thread's heap lock is taken once per [cap] frees, not once
   per [cap/2], and after each such free the class holds only the
   freeing block. *)
let test_bailed_eviction_takes_the_class () =
  List.iter
    (fun (label, config) ->
      let config = { config with Hoard_config.front_end = 4; remote_queue_cap = 2; nheaps = None } in
      batch_run config (fun _ h a heap_locks ->
          let sclass = Size_class.class_of_size (Hoard.size_classes h) 64 in
          let cached () = List.fold_left (fun n (_, counts) -> n + counts.(sclass)) 0 (Hoard.cache_counts h) in
          let ps = List.init 64 (fun _ -> a.Alloc_intf.malloc 64) in
          ignore (heap_locks ());
          let trips =
            List.concat
              (List.mapi
                 (fun i p ->
                   a.Alloc_intf.free p;
                   if List.mem "hoard.heap1" (heap_locks ()) then begin
                     Alcotest.(check int) (label ^ ": a bailed eviction leaves only the freeing block") 1 (cached ());
                     Hoard.check h;
                     [ i ]
                   end
                   else [])
                 ps)
          in
          let rec gaps = function
            | x :: (y :: _ as rest) -> (y - x) :: gaps rest
            | [ _ ] | [] -> []
          in
          Alcotest.(check bool) (label ^ ": the own channel filled") true (List.length trips > 8);
          Alcotest.(check (list int))
            (label ^ ": one heap-lock trip per cap frees")
            (List.init (List.length trips - 1) (fun _ -> 4))
            (gaps trips)))
    batch_configs

(* The link writes of an eviction whose own-heap push bails. One thread
   of a one-processor hoard-gl instance (K = 4, so the 1 KiB class caches
   4 blocks; [remote_queue_cap] = 1, below any eviction) mallocs nine
   1 KiB blocks, leaving the class's cache empty, over two superblocks.
   [frees] fills the cache; freeing [last] then evicts the oldest two,
   whose push is rejected, so the newer two join them in one locked
   disposal. Returns the 8 B writes into the four cached blocks during
   that free, and the class's cached blocks after it. *)
let bailed_eviction_links body =
  let config =
    {
      (Option.get (Allocators.base_config "hoard-gl")) with
      Hoard_config.front_end = 4;
      remote_queue_cap = 1;
      nheaps = None;
    }
  in
  let sim = Sim.create ~nprocs:1 () in
  let pf0 = Sim.platform sim in
  let counting = ref false and cached_blocks = ref [] and links = ref 0 in
  let pf =
    {
      pf0 with
      Platform.write =
        (fun ~addr ~len ->
          if !counting && len = 8 && List.mem addr !cached_blocks then incr links;
          pf0.Platform.write ~addr ~len);
    }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let after = ref (-1) in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         let blocks = List.sort compare (List.init 9 (fun _ -> a.Alloc_intf.malloc 1024)) in
         let sclass = Size_class.class_of_size (Hoard.size_classes h) 1024 in
         let cached () = List.fold_left (fun n (_, counts) -> n + counts.(sclass)) 0 (Hoard.cache_counts h) in
         Alcotest.(check int) "the mallocs leave the class empty" 0 (cached ());
         let base x = x - (x mod config.Hoard_config.sb_size) in
         let frees, last = body (List.partition (fun x -> base x = base (List.hd blocks)) blocks) in
         List.iter a.Alloc_intf.free frees;
         cached_blocks := frees;
         counting := true;
         a.Alloc_intf.free last;
         counting := false;
         after := cached ();
         Hoard.check h));
  Sim.run sim;
  Hoard.check h;
  (!links, !after)

(* Frees a1..a4 of one superblock link a chain a4 a3 a2 a1. The bail
   disposes of the newer half ahead of the rejected one, in that chain
   order, so the whole batch is one run and writes one link, a1's. The
   rejected half first would write two: a1's, which a4 then follows,
   and a3's. *)
let test_bailed_burst_writes_one_link () =
  let burst = function
    | a1 :: a2 :: a3 :: a4 :: a5 :: _, _ -> ([ a1; a2; a3; a4 ], a5)
    | _ -> Alcotest.fail "five blocks of one superblock expected"
  in
  Alcotest.(check (pair int int)) "one link, only the freeing block cached" (1, 1) (bailed_eviction_links burst)

(* Frees a1 b1 a2 a3 link the chain a3 a2 b1 a1, three runs; the
   combined batch writes each run's end: a2, b1 and a1. *)
let test_bailed_runs_write_one_link_each () =
  let interleaved = function
    | a1 :: a2 :: a3 :: a4 :: _, b1 :: _ -> ([ a1; b1; a2; a3 ], a4)
    | _ -> Alcotest.fail "two superblocks of blocks expected"
  in
  Alcotest.(check (pair int int)) "one link per run end" (3, 1) (bailed_eviction_links interleaved)

(* The front end's kept links under random frees, pops, fills, flushes
   and drains (evictions come from frees at the cap): after every step
   [Thread_cache.check] holds, so each slot's link is 0 or the slot
   below it, and every link a cut hands out is the value a free last
   wrote into that block's word, or 0 — never a link a fill, a pop or a
   class cut left stale, so no surrendered write is skipped falsely. One
   class of 64 B blocks with K = 4 (cap 4, fill 2) over two superblocks.
   The surrender models the heap's own channel with a cap of 1–2
   blocks, emptied by a drain: a batch that does not fit is rejected,
   and the surrender then takes the rest of the class
   ([Thread_cache.take_class]), whose blocks and the rejected ones must
   form one chain in that order. *)
type cache_op = Free_fresh | Free_held | Pop | Fill | Flush | Drain

let test_cache_links_hold =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 2)
        (list_size (int_range 1 80)
           (frequency
              [
                (4, return Free_fresh);
                (2, return Free_held);
                (3, return Pop);
                (1, return Fill);
                (1, return Flush);
                (1, return Drain);
              ])))
  in
  let print = function
    | Free_fresh -> "free"
    | Free_held -> "free-held"
    | Pop -> "pop"
    | Fill -> "fill"
    | Flush -> "flush"
    | Drain -> "drain"
  in
  QCheck.Test.make ~name:"cache links hold under push, pop, cut and fill" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair (Printf.sprintf "own cap %d") (list print)) gen)
    (fun (own_cap, ops) ->
      let pf = Platform.host () in
      let classes = Size_class.create ~growth:1.2 ~max_small:1024 () in
      let sclass = Size_class.class_of_size classes 64 in
      let block_size = Size_class.size_of_class classes sclass in
      let sbs = List.init 2 (fun i -> Superblock.create ~base:((i + 1) * 8192) ~sb_size:8192 ~sclass ~block_size) in
      (* What each block's first word holds, as far as the model knows. *)
      let word = Hashtbl.create 64 and stack = ref [] and held = ref [] in
      let top () = match !stack with (a, _) :: _ -> a | [] -> 0 in
      let listed = ref 0 in
      let release blocks =
        List.iter
          (fun (sb, addr, link) ->
            if link <> 0 && Hashtbl.find_opt word addr <> Some link then
              QCheck.Test.fail_reportf "%#x surrendered with link %#x, its word holds %s" addr link
                (match Hashtbl.find_opt word addr with Some w -> Printf.sprintf "%#x" w | None -> "no link");
            stack := List.filter (fun (a, _) -> a <> addr) !stack;
            Superblock.clear_cached sb addr;
            Superblock.free_block sb addr)
          blocks
      in
      let surrender c blocks =
        let n = List.length blocks in
        if !listed + n <= own_cap then listed := !listed + n
        else begin
          let newer = Thread_cache.take_class c ~sclass in
          let rec chained = function
            | (_, addr, link) :: ((_, below, _) :: _ as rest) ->
              if link <> 0 && link <> below then
                QCheck.Test.fail_reportf "class cut: %#x linked to %#x, not to %#x after it" addr link below;
              chained rest
            | [ _ ] | [] -> ()
          in
          chained (newer @ blocks);
          release newer
        end;
        release blocks
      in
      let fe =
        Thread_cache.create pf ~front_end:4 ~classes ~stats:(Alloc_stats.create ~shards:1 ()) ~home:(fun () -> 1)
          ~surrender ()
      in
      let c = Thread_cache.mine fe in
      let fresh () =
        match List.find_opt (fun sb -> not (Superblock.is_full sb)) sbs with
        | Some sb -> Some (Superblock.alloc_block sb, sb)
        | None -> None
      in
      let free (addr, sb) =
        Thread_cache.push c ~sclass sb addr;
        (* The free's write: the top after any eviction. *)
        Hashtbl.replace word addr (top ());
        stack := (addr, sb) :: !stack
      in
      List.iter
        (fun op ->
          (match op with
           | Free_fresh -> Option.iter free (fresh ())
           | Free_held -> (
             match !held with
             | b :: rest ->
               held := rest;
               free b
             | [] -> ())
           | Pop -> (
             match Thread_cache.pop c ~size:64 ~sclass with
             | Some addr ->
               let b = List.find (fun (a, _) -> a = addr) !stack in
               stack := List.tl !stack;
               Hashtbl.remove word addr;
               held := b :: !held
             | None -> ())
           | Fill ->
             if !stack = [] then begin
               let blocks = List.filter_map (fun _ -> fresh ()) [ (); () ] in
               Thread_cache.fill c ~sclass blocks;
               List.iter
                 (fun (a, sb) ->
                   Hashtbl.remove word a;
                   stack := (a, sb) :: !stack)
                 blocks
             end
           | Flush -> Thread_cache.flush fe
           | Drain -> listed := 0);
          Thread_cache.check fe)
        ops;
      true)

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
  let config = { Hoard_config.default with front_end; global = Lockfree; nheaps = Some 2 } in
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
  let parked = (Hoard.remote_queue_lengths h).(0) in
  Alcotest.(check bool) (Printf.sprintf "%d blocks parked, under half a batch" parked) true (parked < n / 2);
  Hoard.flush_caches h;
  Hoard.check h;
  Alcotest.(check int) "nothing live" 0 ((Hoard.allocator h).Alloc_intf.stats ()).Alloc_stats.live_bytes

(* The global-free shard's cap is in bytes: a thread that only frees
   completes its shard once the blocks parked there pass 8·S bytes.
   Thread 0 (heap 1) allocates [n] blocks of [size] and exits, so
   adoption publishes their superblocks to the index; thread 1 (heap 2)
   frees them one by one, never refilling or flushing. The shard holds
   every block up to [8·S / block] of them, and the next park completes
   it. *)
let test_shard_cap_in_bytes ~size ~expect () =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let config =
    { cfg with Hoard_config.nheaps = Some 2; front_end = 0; release_threshold = max_int; global = Hoard_config.Lockfree }
  in
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let classes = Hoard.size_classes h in
  let block = Size_class.size_of_class classes (Size_class.class_of_size classes size) in
  let most = 8 * config.Hoard_config.sb_size / block in
  Alcotest.(check int) (Printf.sprintf "%d B blocks: 8·S bytes' worth" block) expect most;
  let b = Sim.new_barrier sim ~parties:2 in
  let blocks = ref [||] and parked = ref [] in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         blocks := Array.init (most + 1) (fun _ -> a.Alloc_intf.malloc size);
         a.Alloc_intf.thread_exit ();
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         Array.iter
           (fun p ->
             a.Alloc_intf.free p;
             parked := (Hoard.remote_queue_lengths h).(0) :: !parked)
           !blocks));
  Sim.run sim;
  match !parked with
  | last :: before :: _ ->
    Alcotest.(check int) "parked up to 8·S bytes" most before;
    Alcotest.(check int) "the next park completes the shard" 0 last;
    Alcotest.(check int) "the parks before it only grew" (most * (most + 1) / 2) (List.fold_left ( + ) 0 !parked);
    Hoard.check h;
    Alcotest.(check int) "heap 0 holds nothing live" 0 (Hoard.heap_info h 0).Hoard.u_bytes
  | _ -> Alcotest.fail "two frees at least"

(* The knob registry: textual set/set_all, name normalization,
   registry-driven help and printing. *)
let test_knob_registry () =
  (* A textual set equals the record update of the same knobs. *)
  Alcotest.(check bool) "set global=lockfree = record update" true
    ({ Hoard_config.default with global = Lockfree; front_end = 4 }
    = Hoard_config.set_all Hoard_config.default [ "global=lockfree"; "front-end=4" ]);
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
  (* Unknown knobs and malformed or out-of-range values are rejected. *)
  let rejects s =
    match Hoard_config.set Hoard_config.default s with
    | _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s)
    | exception Invalid_argument _ -> ()
  in
  rejects "bogus=1";
  rejects "front-end";
  (* Deleted knobs are unknown: the channel follows the global heap, b,
     the path work and the fullness-group count are constants, an
     explicit nheaps picks heaps by tid hash, the sanitizer wraps an
     instance instead of configuring one, and a mutant is a record
     field, not a knob. *)
  rejects "sanitize=true";
  rejects "quarantine=8";
  rejects "deferred=true";
  rejects "growth=1.5";
  rejects "mutant=orphan-lost-superblock";
  rejects "path-work=30";
  rejects "ngroups=8";
  rejects "assign-by-tid=true";
  rejects "sb-size=5000";
  rejects "empty-fraction=2.0";
  (* The registry drives the CLI help and the printer. *)
  let names = Hoard_config.knob_names () in
  Alcotest.(check int) "10 knobs" 10 (List.length names);
  Alcotest.(check bool) "mutant is not a knob" false (List.mem "mutant" names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names);
      Alcotest.(check bool) (n ^ " documented") true
        (Astring.String.is_infix ~affix:n (Hoard_config.knob_doc ())))
    [ "sb-size"; "empty-fraction"; "global"; "large-cache"; "front-end" ];
  let printed =
    Format.asprintf "%a" Hoard_config.pp
      { Hoard_config.default with global = Lockfree; front_end = 4; large_cache = 2; mutant = "global-no-aba" }
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " printed") true (Astring.String.is_infix ~affix:n printed))
    [ "global"; "large-cache"; "front-end"; "MUTANT=global-no-aba" ]

(* A mutant is planted by record update; creation validates the name. *)
let test_unknown_mutant_rejected () =
  let config = { Hoard_config.default with mutant = "no-such-mutant" } in
  match Hoard.create ~config (Platform.host ()) with
  | _ -> Alcotest.fail "an unknown mutant name must be rejected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names the mutant: " ^ msg) true (Astring.String.is_infix ~affix:"no-such-mutant" msg)

(* Fuzz: a textual [set_all] over a random subset of the 10 knobs must
   land on exactly the record update of the same subset, so every knob's
   text form round-trips through the registry. *)
let test_set_all_matches_record_update =
  QCheck.Test.make ~name:"set_all = record update on random knob subsets" ~count:300
    QCheck.(pair (int_bound 0x3FF) (int_bound 1000))
    (fun (mask, vseed) ->
      let bit i = mask land (1 lsl i) <> 0 in
      let pick i l = List.nth l ((vseed + i) mod List.length l) in
      let opt i l = if bit i then Some (pick i l) else None in
      let sb_size = opt 0 [ 4096; 8192; 32768 ] in
      let empty_fraction = opt 1 [ 0.125; 0.25; 0.5 ] in
      let slack = opt 2 [ 0; 2; 4 ] in
      let nheaps = opt 3 [ Some 1; Some 3; Some 9; None ] in
      let release_threshold = opt 4 [ 0; 2; 8; max_int ] in
      let front_end = opt 5 [ 0; 4; 16 ] in
      let large_cache = opt 6 [ 0; 2; 8 ] in
      let global = opt 7 [ Hoard_config.Locked; Hoard_config.Lockfree ] in
      let vmem_backend = opt 8 [ Vmem_backend.Exact; Vmem_backend.First_fit; Vmem_backend.Buddy ] in
      let remote_queue_cap = opt 9 [ 1; 64; 256 ] in
      let d = Hoard_config.default in
      let v field = Option.value ~default:field in
      let updated =
        {
          d with
          sb_size = v d.sb_size sb_size;
          empty_fraction = v d.empty_fraction empty_fraction;
          slack = v d.slack slack;
          nheaps = v d.nheaps nheaps;
          release_threshold = v d.release_threshold release_threshold;
          front_end = v d.front_end front_end;
          large_cache = v d.large_cache large_cache;
          global = v d.global global;
          vmem_backend = v d.vmem_backend vmem_backend;
          remote_queue_cap = v d.remote_queue_cap remote_queue_cap;
        }
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
            Option.map (Printf.sprintf "large-cache=%d") large_cache;
            Option.map
              (fun g -> Printf.sprintf "global=%s" (Hoard_config.global_mode_name g))
              global;
            Option.map (fun k -> "vmem=" ^ Vmem_backend.kind_name k) vmem_backend;
            Option.map (Printf.sprintf "remote-queue-cap=%d") remote_queue_cap;
          ]
      in
      updated = Hoard_config.set_all Hoard_config.default textual)

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
          Alcotest.test_case "unknown mutant rejected" `Quick test_unknown_mutant_rejected;
          QCheck_alcotest.to_alcotest test_set_all_matches_record_update;
          Alcotest.test_case "large cache roundtrip" `Quick test_large_cache_roundtrip;
          Alcotest.test_case "large cache buckets by size" `Quick test_large_cache_buckets_by_size;
          Alcotest.test_case "remote-free channel follows the global heap" `Quick test_channel_follows_global;
          Alcotest.test_case "deferred lists reclaim" `Quick test_deferred_lists_reclaim;
          Alcotest.test_case "reclaim writes each header once" `Quick test_reclaim_writes_header_once;
          Alcotest.test_case "drain splices under the lock" `Quick test_drain_splices_under_lock;
          Alcotest.test_case "gl reclaim writes one link per run" `Quick test_gl_reclaim_links_per_run;
          Alcotest.test_case "flushed burst writes one link" `Quick test_flushed_burst_writes_one_link;
          Alcotest.test_case "flushed runs write one link each" `Quick test_flushed_runs_write_one_link_each;
          Alcotest.test_case "pop between frees keeps the chain linked" `Quick test_pop_between_frees_keeps_chain_linked;
          Alcotest.test_case "fill blocks always written" `Quick test_fill_blocks_always_written;
          Alcotest.test_case "flushed park writes one link" `Quick test_flushed_park_writes_one_link;
          Alcotest.test_case "bailed eviction takes the class" `Quick test_bailed_eviction_takes_the_class;
          Alcotest.test_case "bailed burst writes one link" `Quick test_bailed_burst_writes_one_link;
          Alcotest.test_case "bailed runs write one link each" `Quick test_bailed_runs_write_one_link_each;
          QCheck_alcotest.to_alcotest test_cache_links_hold;
          Alcotest.test_case "run ends of a deferred chain" `Quick test_run_ends;
          Alcotest.test_case "own-heap deferred backlog bounded" `Quick test_own_deferred_backlog_bounded;
          Alcotest.test_case "remote deferred backlog uncapped" `Quick test_remote_deferred_backlog_uncapped;
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
          Alcotest.test_case "tid-hash heap assignment" `Quick test_explicit_nheaps_hashes_tids;
          Alcotest.test_case "heap info reconciles" `Quick test_heap_info_reconciles_with_stats;
          Alcotest.test_case "usable matches class" `Quick test_usable_size_matches_class;
          Alcotest.test_case "pp_heaps with one class in use" `Quick test_pp_heaps_one_class;
          Alcotest.test_case "simulated objects in creation order" `Quick test_creation_order_pinned;
          Alcotest.test_case "set-up size at 64 processors" `Quick test_setup_size_64p;
          QCheck_alcotest.to_alcotest test_random_ops_sound;
          QCheck_alcotest.to_alcotest test_sim_random_stress;
          QCheck_alcotest.to_alcotest test_fuzzed_schedules_sound;
        ] );
      ( "multiprocessor",
        [
          Alcotest.test_case "blowup bounded" `Quick test_blowup_bounded_producer_consumer;
          Alcotest.test_case "remote free" `Quick test_remote_free_returns_to_owner;
          Alcotest.test_case "paper-exact remote free keeps the block's miss outside the owner lock" `Quick
            test_remote_free_miss_outside_owner_lock;
          Alcotest.test_case "paper-exact remote free keeps the header's miss outside the owner lock" `Quick
            test_remote_free_header_miss_outside_owner_lock;
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
          Alcotest.test_case "remote forwards batched (deferred)" `Quick test_remote_forward_deferred;
          Alcotest.test_case "batch malloc serves from the thread cache" `Quick test_malloc_batch_serves_from_cache;
          Alcotest.test_case "invariant holds after every drain" `Quick test_invariant_at_every_drain;
          Alcotest.test_case "batch free keeps the free contract" `Quick test_free_batch_keeps_free_contract;
          Alcotest.test_case "class capacity in bytes" `Quick test_class_capacity_in_bytes;
          Alcotest.test_case "check walks the bounded queue" `Quick test_check_walks_queue;
          Alcotest.test_case "check walks the thread caches" `Quick test_check_walks_thread_caches;
        ] );
      ( "global heap",
        [
          Alcotest.test_case "locked by default" `Quick test_global_locked_by_default;
          Alcotest.test_case "lockfree roundtrip" `Quick test_global_lockfree_roundtrip;
          Alcotest.test_case "heatmap global row under lockfree" `Quick test_global_lockfree_profile_row;
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
          Alcotest.test_case "shard cap in bytes (16 B)" `Quick (test_shard_cap_in_bytes ~size:16 ~expect:4096);
          Alcotest.test_case "shard cap in bytes (2 KiB)" `Quick (test_shard_cap_in_bytes ~size:2048 ~expect:32);
        ] );
    ]
