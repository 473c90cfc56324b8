(* Canned scenarios for the schedule explorer.

   Each scenario builds a fresh machine per run (the explorer replays
   them hundreds of times), spawns at most one thread per processor as
   controlled mode requires, and returns a post-run check. The two
   counter scenarios are self-tests of the explorer itself; the hoard
   scenarios drive the real allocator — optionally with a planted mutant
   (Hoard_config.mutant) whose bug only fires under a specific
   interleaving, which the explorer must find and minimize. *)

let sprintf = Printf.sprintf

(* A classic lost update: both threads read a shared counter, pass a
   synchronisation point (an unrelated lock, which is what makes the
   window visible to a preemption-bounded explorer), then write back
   +1. The counter itself is host state mirrored by simulated accesses
   to a fixed address so that step footprints expose the conflict. *)
let counter_addr = 0x4000_0000

let lost_update =
  {
    Explorer.sc_name = "lost-update";
    sc_describe = "unsynchronized read-modify-write of a shared counter; fails at preemption bound 1";
    sc_nprocs = 2;
    sc_build =
      (fun sim _pf ->
        let c = ref 0 in
        let tick = Sim.new_lock sim "tick" in
        for p = 0 to 1 do
          ignore
            (Sim.spawn sim ~proc:p (fun () ->
                 Sim.read ~addr:counter_addr ~len:8;
                 let v = !c in
                 Sim.acquire tick;
                 Sim.release tick;
                 c := v + 1;
                 Sim.write ~addr:counter_addr ~len:8))
        done;
        fun () -> if !c <> 2 then failwith (sprintf "lost update: counter = %d, expected 2" !c));
  }

(* The same counter correctly guarded: the read-modify-write sits inside
   the critical section. No interleaving loses an update. *)
let locked_update =
  {
    Explorer.sc_name = "locked-update";
    sc_describe = "the same counter under a lock; passes at every bound";
    sc_nprocs = 2;
    sc_build =
      (fun sim _pf ->
        let c = ref 0 in
        let mu = Sim.new_lock sim "mu" in
        for p = 0 to 1 do
          ignore
            (Sim.spawn sim ~proc:p (fun () ->
                 Sim.acquire mu;
                 Sim.read ~addr:counter_addr ~len:8;
                 let v = !c in
                 Sim.work 5;
                 c := v + 1;
                 Sim.write ~addr:counter_addr ~len:8;
                 Sim.release mu))
        done;
        fun () -> if !c <> 2 then failwith (sprintf "locked update: counter = %d, expected 2" !c));
  }

(* Shared scaffolding for the hoard scenarios: a one-heap configuration
   on a 4 KiB superblock so a handful of allocations spans exactly two
   superblocks of one size class. *)
let race_config ~mutant =
  {
    Hoard_config.default with
    sb_size = 4096;
    nheaps = Some 1;
    slack = 0;
    empty_fraction = 0.5;
    release_threshold = max_int;
    front_end = 0;
    mutant;
  }

(* Pick the largest size class whose superblock capacity is at least
   [min_cap] blocks — big blocks keep the setup short, enough capacity
   keeps the fullness arithmetic below valid. *)
let pick_class sc ~sb_size ~min_cap =
  let best = ref None in
  for c = 0 to Size_class.count sc - 1 do
    let bsize = Size_class.size_of_class sc c in
    let cap = (sb_size - Superblock.header_bytes) / bsize in
    if cap >= min_cap then best := Some (bsize, cap)
  done;
  match !best with
  | Some r -> r
  | None -> invalid_arg "pick_class: no class with the requested capacity"

let sb_base ~sb_size addr = addr - (addr mod sb_size)

(* The free/transfer race from the paper's free protocol. Thread A owns a
   heap holding two superblocks: SB1 nearly empty (2 live blocks), SB2
   just above the emptiness threshold; the heap sits exactly ON the
   threshold. A frees one SB2 block, crossing it, so A's free transfers
   SB1 — with thread B's block still live inside — to the global heap.
   Concurrently B frees that block: B reads SB1's owner (heap 1), then
   must lock heap 1. If B's lock attempt lands inside A's critical
   section (one preemption), B enters only after the transfer completed
   and its owner snapshot is stale. The real allocator re-checks
   ownership after acquiring (Hoard's lock_owner) and retries against
   the global heap; the skip-owner-recheck mutant frees into the stale
   heap and Heap_core rejects the foreign superblock. *)
let transfer_free_race ~mutant =
  {
    Explorer.sc_name = (if mutant = "" then "transfer-free-race" else "transfer-free-race-mutant");
    sc_describe =
      (if mutant = "" then "free racing a superblock transfer; the ownership re-check protects it"
       else "same race against the skip-owner-recheck mutant; fails at preemption bound 1");
    sc_nprocs = 2;
    sc_build =
      (fun sim pf ->
        let config = race_config ~mutant in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let sb_size = config.Hoard_config.sb_size in
        let bsize, cap = pick_class (Hoard.size_classes h) ~sb_size ~min_cap:7 in
        let barrier = Sim.new_barrier sim ~parties:2 in
        let a_target = ref 0 and b_target = ref 0 in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               (* Fill two superblocks of the class. *)
               let addrs = Array.init (2 * cap) (fun _ -> a.Alloc_intf.malloc bsize) in
               let base1 = sb_base ~sb_size addrs.(0) in
               let g1, g2 = Array.to_list addrs |> List.partition (fun x -> sb_base ~sb_size x = base1) in
               if List.length g1 <> cap || List.length g2 <> cap then
                 failwith "transfer-free-race: allocations did not split 2 superblocks evenly";
               (* Leave 2 blocks live in SB1 (one is B's target) and
                  cap-2 in SB2: cap live blocks total, exactly on the
                  emptiness threshold (u = cap * bsize = (1-f) * a). *)
               (match g1 with
                | keep :: _ :: rest -> b_target := keep; List.iter a.Alloc_intf.free rest
                | _ -> assert false);
               (match g2 with
                | x :: y :: next :: _ -> a.Alloc_intf.free x; a.Alloc_intf.free y; a_target := next
                | _ -> assert false);
               Sim.barrier_wait barrier;
               (* Crosses the threshold: trim picks SB1 (2/cap full vs
                  SB2's (cap-3)/cap > 1-f) and transfers it. *)
               a.Alloc_intf.free !a_target));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               a.Alloc_intf.free !b_target));
        fun () ->
          Hoard.check h;
          if not (Hoard.invariant_holds h ~heap_id:1) then
            failwith "transfer-free-race: emptiness invariant violated on heap 1");
  }

(* Single-threaded emptiness-invariant scenario: drive a heap well below
   the threshold and rely on the post-run check. The real allocator
   restores the invariant during the frees; the emptiness-off-by-one
   mutant trims against K+1 and leaves the heap too empty — caught even
   on the default schedule (preemption bound 0), i.e. by the invariant
   check alone, no interleaving needed. *)
let emptiness_trim ~mutant =
  {
    Explorer.sc_name = (if mutant = "" then "emptiness-trim" else "emptiness-trim-mutant");
    sc_describe =
      (if mutant = "" then "frees crossing the emptiness threshold; trims restore the invariant"
       else "emptiness-off-by-one mutant retains too-empty superblocks; fails at bound 0");
    sc_nprocs = 1;
    sc_build =
      (fun sim pf ->
        let config = { (race_config ~mutant) with Hoard_config.slack = 1 } in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let sb_size = config.Hoard_config.sb_size in
        let bsize, cap = pick_class (Hoard.size_classes h) ~sb_size ~min_cap:7 in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               let addrs = Array.init (3 * cap) (fun _ -> a.Alloc_intf.malloc bsize) in
               (* Empty the first two superblocks down to one live block
                  each: u = (cap+2) * bsize out of 3 superblocks held. *)
               for i = 0 to cap - 2 do
                 a.Alloc_intf.free addrs.(i);
                 a.Alloc_intf.free addrs.(cap + i)
               done));
        fun () ->
          Hoard.check h;
          if not (Hoard.invariant_holds h ~heap_id:1) then
            failwith "emptiness-trim: emptiness invariant violated on heap 1");
  }

(* Superblock registry churn: three threads on two heaps, each cycling a
   block that fills a whole superblock, with the release threshold at
   0 — every free empties a superblock, transfers it to the global heap
   and unmaps it, so register/unregister runs concurrently with the
   wait-free lookup on every other thread's free path. The explorer
   checks no interleaving makes a lookup observe a freed superblock
   (which would surface as a crash or a wrong usable_size). *)
let registry_churn =
  {
    Explorer.sc_name = "registry-churn";
    sc_describe = "mallocs/frees churning superblock map/unmap under concurrent wait-free lookups";
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let config =
          {
            (race_config ~mutant:"") with
            Hoard_config.nheaps = Some 2;
            release_threshold = 0;
          }
        in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let size = Hoard_config.max_small config in
        for p = 0 to 2 do
          ignore
            (Sim.spawn sim ~proc:p (fun () ->
                 for _ = 1 to 3 do
                   let addr = a.Alloc_intf.malloc size in
                   let u = a.Alloc_intf.usable_size addr in
                   if u < size then failwith (sprintf "registry-churn: usable %d < %d" u size);
                   a.Alloc_intf.free addr
                 done))
        done;
        fun () -> Hoard.check h);
  }

(* The Treiber protocol itself, raw: a stack alone in a bounded
   [Lockfree] pool, as under each large-object cache bucket (the global
   index's entry stacks run the same code on a growing pool), driven
   directly so every link word is a schedule step. Three threads pop
   (one of them pushes back) against a 3-deep stack; the post-run check
   walks the structure and demands every accepted push is accounted for
   exactly once. With the ABA tag frozen (mutant = "large-cache-no-aba"),
   a popper preempted between its link load and its head CAS can resume
   after the top node was recycled and install a stale link — the pool
   walk then finds a node reachable twice. Two preemptions suffice: one
   to park the popper in its window, one to split another pop between
   its head CAS and its free-list push (which is what lets the pool hand
   the recycled node out under a different link). *)
let lockfree_stack ~mutant =
  {
    Explorer.sc_name = (if mutant = "" then "lockfree-stack" else "lockfree-stack-mutant");
    sc_describe =
      (if mutant = "" then "pops racing pushes on the tagged Treiber stack under the large cache"
       else "the same race with the ABA tag frozen; a stale pop corrupts the stack at bound <= 2");
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let stack =
          Lockfree.create pf ~name:"stack" ~cap:4 ~aba_tag:(mutant <> "large-cache-no-aba") ()
        in
        let barrier = Sim.new_barrier sim ~parties:3 in
        let popped = Array.make 3 [] in
        let note p = function None -> () | Some v -> popped.(p) <- v :: popped.(p) in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               ignore (Lockfree.push stack 101);
               ignore (Lockfree.push stack 102);
               ignore (Lockfree.push stack 103);
               Sim.barrier_wait barrier;
               note 0 (Lockfree.pop stack)));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               note 1 (Lockfree.pop stack)));
        ignore
          (Sim.spawn sim ~proc:2 (fun () ->
               Sim.barrier_wait barrier;
               note 2 (Lockfree.pop stack);
               ignore (Lockfree.push stack 105)));
        fun () ->
          (* [iter] walks the whole pool: it rejects cycles, twice-linked
             and stranded nodes and payload-less live nodes — the
             structural ABA signatures. *)
          let remaining = ref [] in
          Lockfree.iter stack (fun v -> remaining := v :: !remaining);
          if List.length !remaining <> Lockfree.length stack then
            failwith
              (sprintf "lockfree-stack: walk found %d elements, counters say %d"
                 (List.length !remaining) (Lockfree.length stack));
          let acc = !remaining @ popped.(0) @ popped.(1) @ popped.(2) in
          if List.length acc <> Lockfree.pushes stack then
            failwith
              (sprintf "lockfree-stack: %d elements accounted for, %d pushes accepted"
                 (List.length acc) (Lockfree.pushes stack));
          let rec dup = function
            | a :: (b :: _ as tl) -> a = b || dup tl
            | _ -> false
          in
          if dup (List.sort compare acc) then
            failwith "lockfree-stack: an element surfaced twice (lost ABA tag?)");
  }

(* Remote frees racing the owner's drain, end to end through the
   allocator, on either remote-free channel: thread 0 (heap 1) allocates
   one fill's worth of blocks (fe/2 + 1, all from one superblock) and
   hands them to threads 1 and 2 (heaps 2 and 3) — [frees.(i)] blocks to
   thread i + 1. Their remote frees land in their front-end caches, and
   each flush surrenders its blocks as one batch onto heap 1's channel,
   the two flushes racing each other. Meanwhile the owner, its cache for
   the class now empty, mallocs once more: the real fill path detaches
   the channel and writes the links it can BEFORE taking heap 1's lock,
   then splices the batch under the lock, so a flush may land before the
   detach, between the detach and the lock, or after. Every block must end
   either drained into the heap core or still pending on the channel. *)
let remote_drain_race sim pf ~config ~name ~frees =
  let h = Hoard.create ~config pf in
  let a = Hoard.allocator h in
  let bsize, _ = pick_class (Hoard.size_classes h) ~sb_size:config.Hoard_config.sb_size ~min_cap:7 in
  let total = Array.fold_left ( + ) 0 frees in
  assert (total = (config.Hoard_config.front_end / 2) + 1);
  let barrier = Sim.new_barrier sim ~parties:3 in
  let blocks = Array.make total 0 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         (* One fill serves every malloc and leaves the cache empty. *)
         Array.iteri (fun i _ -> blocks.(i) <- a.Alloc_intf.malloc bsize) blocks;
         Sim.barrier_wait barrier;
         ignore (a.Alloc_intf.malloc bsize)));
  Array.iteri
    (fun i k ->
      let first = Array.fold_left ( + ) 0 (Array.sub frees 0 i) in
      ignore
        (Sim.spawn sim ~proc:(i + 1) (fun () ->
             Sim.barrier_wait barrier;
             for j = first to first + k - 1 do
               a.Alloc_intf.free blocks.(j)
             done;
             a.Alloc_intf.flush ())))
    frees;
  fun () ->
    Hoard.check h;
    let pending = Array.fold_left ( + ) 0 (Hoard.remote_queue_lengths h) in
    (* Nothing else drains in this scenario: every drained block is one
       the owner's fill took off the channel. *)
    let drained = (a.Alloc_intf.stats ()).Alloc_stats.remote_drains in
    if pending + drained <> total then
      failwith (sprintf "%s: %d block(s) pending + %d drained, expected %d" name pending drained total)

(* The deferred list (the lock-free global heap's channel): CAS pushes
   racing the owner's exchange. Thread 2
   surrenders two blocks of one superblock in one chain; they stay
   adjacent in the detached chain, one run, so the owner writes no join
   between its detach and its lock — what falls in that window is the
   chain walk's link reads. The real push
   retries a failed CAS; the deferred-lost-node mutant treats the
   failure as success, so in the schedule where a push's load-to-CAS
   window is cut by another push or by the owner's exchange its chain
   leaves every list undrained and the post-run count comes up short. *)
let deferred_remote_free ~mutant =
  let name = if mutant = "" then "deferred-remote-free" else "deferred-remote-free-mutant" in
  {
    Explorer.sc_name = name;
    sc_describe =
      (if mutant = "" then "remote flushes racing CAS pushes onto one heap's deferred free list"
       else "the same push race with the lost-node mutant; a dropped push leaks a block at bound <= 2");
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let config =
          { (race_config ~mutant) with Hoard_config.nheaps = Some 3; front_end = 4; global = Hoard_config.Lockfree }
        in
        remote_drain_race sim pf ~config ~name ~frees:[| 1; 2 |]);
  }

(* The own-heap cap on a deferred list (remote_queue_cap = 1), two
   threads sharing one heap. Thread 0 frees four of its blocks through a
   2-block cache: the third free evicts one block onto the heap's own
   list, the fourth evicts another, which finds the list full and bails
   to the locked [dispose_batch], taking the cache's kept block (the
   third free's) along in the same heap-lock trip, so the fourth block
   enters an empty class — unless thread 1's fill, racing both, detached
   the list in between. That fill detaches the list and walks it before
   the heap lock and splices under it, so the bailed blocks' locked
   free can land before the detach, between the detach and the lock, or
   after the splice. Oracle: the own list within its cap,
   [Hoard.check] before and after the quiescent flush, and only thread
   1's block live after it. *)
let deferred_own_overflow =
  let name = "deferred-own-overflow" in
  {
    Explorer.sc_name = name;
    sc_describe = "an own-heap eviction bailing from a capped deferred list to the locked path, racing a fill";
    sc_nprocs = 2;
    sc_build =
      (fun sim pf ->
        let config =
          {
            (race_config ~mutant:"") with
            Hoard_config.front_end = 2;
            remote_queue_cap = 1;
            global = Hoard_config.Lockfree;
          }
        in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let bsize, _ = pick_class (Hoard.size_classes h) ~sb_size:config.Hoard_config.sb_size ~min_cap:7 in
        let barrier = Sim.new_barrier sim ~parties:2 in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               (* Two fills serve the four mallocs and leave the cache empty. *)
               let blocks = Array.init 4 (fun _ -> a.Alloc_intf.malloc bsize) in
               Sim.barrier_wait barrier;
               Array.iter a.Alloc_intf.free blocks));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               ignore (a.Alloc_intf.malloc bsize)));
        fun () ->
          let own = (Hoard.remote_queue_lengths h).(1) in
          if own > config.Hoard_config.remote_queue_cap then
            failwith (sprintf "%s: %d block(s) on the own list, cap %d" name own config.Hoard_config.remote_queue_cap);
          Hoard.check h;
          Hoard.flush_caches h;
          Hoard.check h;
          let live = (a.Alloc_intf.stats ()).Alloc_stats.live_bytes in
          if live <> bsize then failwith (sprintf "%s: %dB live after the flush, expected %dB" name live bsize));
  }

(* The bounded queue: two remote flushes pushing under the innermost
   queue lock, racing the owner's swap of the queue before its heap
   lock. *)
let remote_queue_drain =
  let name = "remote-queue-drain" in
  {
    Explorer.sc_name = name;
    sc_describe = "remote flushes onto one heap's bounded queue racing the owner's swap before its heap lock";
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let config = { (race_config ~mutant:"") with Hoard_config.nheaps = Some 3; front_end = 2 } in
        remote_drain_race sim pf ~config ~name ~frees:[| 1; 1 |]);
  }

(* The large-object cache's park/take protocol, raw (the lockfree-stack
   pattern over a Large_cache bucket): three threads take 1-page regions
   from a 3-deep bucket while one of them parks a fourth back. The
   post-run check walks the buckets (Lockfree.iter rejects the
   structural ABA signatures), re-runs the residency check, and demands
   every accepted park is accounted for exactly once across takers and
   the remaining parked set. With the tag frozen
   (mutant = "large-cache-no-aba"), a taker preempted between its link
   load and its head CAS can install a stale link after the slot was
   recycled — caught at preemption bound <= 2 like the raw stack. *)
let large_cache_churn ~mutant =
  {
    Explorer.sc_name = (if mutant = "" then "large-cache-churn" else "large-cache-churn-mutant");
    sc_describe =
      (if mutant = "" then "takes racing a park on one large-cache bucket: pop CAS against push CAS"
       else "the same churn with the ABA tag frozen; a stale take corrupts the bucket at bound <= 2");
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let page = pf.Platform.page_size in
        let cache =
          Large_cache.create pf ~name:"lcache" ~cap:4 ~aba_tag:(mutant <> "large-cache-no-aba") ()
        in
        let regions = Array.make 4 0 in
        let park i =
          match Large_cache.park cache ~addr:regions.(i) ~mapped:page with
          | `Parked -> ()
          | `Bounced | `Uncacheable -> failwith "large-cache-churn: park into a free slot failed"
        in
        let barrier = Sim.new_barrier sim ~parties:3 in
        let taken = Array.make 3 [] in
        let note p = function None -> () | Some v -> taken.(p) <- v :: taken.(p) in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               (* page_map is a machine operation: regions are mapped from
                  inside the simulation, before the others unblock. *)
               for i = 0 to 3 do
                 regions.(i) <- pf.Platform.page_map ~bytes:page ~align:page ~owner:0
               done;
               park 0;
               park 1;
               park 2;
               Sim.barrier_wait barrier;
               note 0 (Large_cache.take cache ~mapped:page)));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               note 1 (Large_cache.take cache ~mapped:page)));
        ignore
          (Sim.spawn sim ~proc:2 (fun () ->
               Sim.barrier_wait barrier;
               note 2 (Large_cache.take cache ~mapped:page);
               park 3));
        fun () ->
          Large_cache.check cache;
          let remaining = ref [] in
          Large_cache.iter cache (fun ~addr ~mapped:_ -> remaining := addr :: !remaining);
          let acc = !remaining @ taken.(0) @ taken.(1) @ taken.(2) in
          if List.length acc <> Large_cache.parks cache then
            failwith
              (sprintf "large-cache-churn: %d regions accounted for, %d parks accepted"
                 (List.length acc) (Large_cache.parks cache));
          let rec dup = function
            | a :: (b :: _ as tl) -> a = b || dup tl
            | _ -> false
          in
          if dup (List.sort compare acc) then
            failwith "large-cache-churn: a region surfaced twice (lost ABA tag?)");
  }

(* The thread-exit adoption protocol. Thread 0 fills one superblock on
   its heap completely and retires; [Hoard.on_thread_exit] must adopt
   the full superblock — live blocks and all — into the global heap
   (full superblocks are exactly what the emptiness trim's victim pick
   never returns, so adoption walks the heap instead). Thread 1
   concurrently frees one of thread 0's blocks: its owner snapshot can
   be taken before, during or after the adoption's owner flip,
   exercising the lock_owner re-check against an exiting heap; it then
   refills from the global heap, potentially taking the adopted
   superblock. Filling the superblock completely keeps thread 0's heap
   above the emptiness threshold whatever thread 1 does, so exactly one
   adoption happens on every schedule and the count can be asserted.
   The orphan-lost-superblock mutant drops the adopted superblock on
   the floor — heap accounting loses its live blocks and [Hoard.check]'s
   live-bytes conservation reports it on every schedule. With
   [global = Lockfree] the adoption is one index publish, thread 1's free
   parks on its heap's shard once it sees owner 0, and its refill
   completes that free before claiming the superblock out of the index. *)
let exit_adoption ?(global = Hoard_config.Locked) ~mutant () =
  let name = if global = Hoard_config.Lockfree then "exit-adoption-lockfree" else "exit-adoption" in
  {
    Explorer.sc_name = (if mutant = "" then name else name ^ "-mutant");
    sc_describe =
      (if mutant = "" then
         "a remote free racing thread-exit's orphaned-superblock adoption; passes at every bound"
       else "the orphan-lost-superblock mutant strands the exiting heap's superblock; fails at bound 0");
    sc_nprocs = 2;
    sc_build =
      (fun sim pf ->
        let config = { (race_config ~mutant) with Hoard_config.nheaps = Some 2; global } in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let sb_size = config.Hoard_config.sb_size in
        let bsize, cap = pick_class (Hoard.size_classes h) ~sb_size ~min_cap:7 in
        let barrier = Sim.new_barrier sim ~parties:2 in
        let hand = ref 0 in
        let kept = ref [] in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               (* Fill one superblock completely: the heap stays above
                  the emptiness threshold whatever thread 1 frees, so
                  the only way these blocks reach the global heap is the
                  exit path's adoption. *)
               let addrs = Array.init cap (fun _ -> a.Alloc_intf.malloc bsize) in
               hand := addrs.(0);
               kept := Array.to_list (Array.sub addrs 1 (cap - 1));
               Sim.barrier_wait barrier;
               a.Alloc_intf.thread_exit ()));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               (* Races the adoption: the owner snapshot can be stale by
                  the time the heap lock is acquired. *)
               a.Alloc_intf.free !hand;
               (* Refill from the global heap — possibly with the adopted
                  superblock — then return the block. *)
               let mine = a.Alloc_intf.malloc bsize in
               a.Alloc_intf.free mine));
        fun () ->
          Hoard.check h;
          let s = (Hoard.allocator h).Alloc_intf.stats () in
          if s.Alloc_stats.orphan_adoptions <> 1 then
            failwith
              (sprintf "exit-adoption: %d superblocks adopted, expected exactly 1"
                 s.Alloc_stats.orphan_adoptions);
          List.iter
            (fun addr ->
              let u = a.Alloc_intf.usable_size addr in
              if u < bsize then failwith (sprintf "exit-adoption: survivor block usable %d < %d" u bsize))
            !kept);
  }

(* The lock-free global heap end to end: with [global = Lockfree], heap
   0 is the CAS-published fullness index and every path below runs
   without the heap-0 lock. Thread 0 engineers the transfer-free-race
   setup (two superblocks on the emptiness threshold) and its free
   publishes SB1 — two blocks still live inside — to the index. Thread 1
   frees one of those blocks: its owner snapshot races the publish's
   owner flip, so the free lands either in heap 1 (locked) or on heap
   2's global-free shard; its flush then reclaims through the index's
   Busy handshake. Thread 2 mallocs on an empty heap: its refill
   reclaims its own (empty) shard and claims SB1 out of the index with
   the pop/revalidate/claim CAS, racing the free throughout (two
   reclaimers racing one superblock is [global_free_shards]).
   [Hoard.check] — index walk, member validation, live-byte
   conservation — is the post-run oracle. *)
let global_transfer =
  {
    Explorer.sc_name = "global-transfer";
    sc_describe =
      "superblock transfer through the lock-free global index: publish racing claim racing the Busy-handshake free";
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let config =
          { (race_config ~mutant:"") with Hoard_config.nheaps = Some 3; global = Hoard_config.Lockfree }
        in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let sb_size = config.Hoard_config.sb_size in
        let bsize, cap = pick_class (Hoard.size_classes h) ~sb_size ~min_cap:7 in
        let barrier = Sim.new_barrier sim ~parties:3 in
        let a_target = ref 0 and b_target = ref 0 in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               (* The transfer-free-race setup: SB1 keeps 2 live blocks
                  (one is thread 1's target), SB2 keeps cap-2, the heap
                  sits exactly on the emptiness threshold. *)
               let addrs = Array.init (2 * cap) (fun _ -> a.Alloc_intf.malloc bsize) in
               let base1 = sb_base ~sb_size addrs.(0) in
               let g1, g2 = Array.to_list addrs |> List.partition (fun x -> sb_base ~sb_size x = base1) in
               if List.length g1 <> cap || List.length g2 <> cap then
                 failwith "global-transfer: allocations did not split 2 superblocks evenly";
               (match g1 with
                | keep :: _ :: rest ->
                  b_target := keep;
                  List.iter a.Alloc_intf.free rest
                | _ -> assert false);
               (match g2 with
                | x :: y :: next :: _ ->
                  a.Alloc_intf.free x;
                  a.Alloc_intf.free y;
                  a_target := next
                | _ -> assert false);
               Sim.barrier_wait barrier;
               (* Crosses the threshold: the trim publishes SB1 to the
                  index with one CAS-published word, no heap-0 lock. *)
               a.Alloc_intf.free !a_target));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               (* Owner snapshot races the publish: the free lands in
                  heap 1 or on this heap's global-free shard; the flush
                  then reclaims it through the index's Busy handshake. *)
               a.Alloc_intf.free !b_target;
               a.Alloc_intf.flush ()));
        ignore
          (Sim.spawn sim ~proc:2 (fun () ->
               Sim.barrier_wait barrier;
               (* Empty heap: the refill reclaims the deferred list and
                  claims SB1 with the pop/revalidate/claim CAS. *)
               let mine = a.Alloc_intf.malloc bsize in
               a.Alloc_intf.free mine));
        fun () ->
          Hoard.check h;
          for id = 1 to 3 do
            if not (Hoard.invariant_holds h ~heap_id:id) then
              failwith (sprintf "global-transfer: emptiness invariant violated on heap %d" id)
          done);
  }

(* The index's entry stacks driven raw (the lockfree-stack pattern over
   the empties stack): thread 0 publishes three empty superblocks, then
   all three threads race [take_empty] while thread 2 publishes a
   fourth — claim pops and publish pushes CAS-racing on the empties
   head with entry nodes recycling through the free list. The post-run
   oracle is [Global_index.check]'s exhaustive walk plus conservation.
   With the tag frozen (mutant = "global-no-aba", the same flag
   [Hoard.create] wires from [Hoard_config.mutant]), a popper preempted
   between its link load and its head CAS can resume after the top node
   was recycled under a republish and splice a stale tail — the walk
   then finds a node reachable twice or stranded. *)
let global_index_churn ~mutant =
  {
    Explorer.sc_name = (if mutant = "" then "global-index-churn" else "global-index-churn-mutant");
    sc_describe =
      (if mutant = "" then "empty superblocks churning through the global index's tagged entry stacks"
       else "the same churn with the ABA tag frozen; a stale splice corrupts a stack at bound <= 2");
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let gi =
          Global_index.create pf ~name:"gidx" ~nclasses:1
            ~aba_tag:(mutant <> "global-no-aba") ()
        in
        let sbs =
          Array.init 4 (fun i -> Superblock.create ~base:(i * 4096) ~sb_size:4096 ~sclass:0 ~block_size:512)
        in
        let barrier = Sim.new_barrier sim ~parties:3 in
        let popped = Array.make 3 [] in
        let note p = function None -> () | Some s -> popped.(p) <- s :: popped.(p) in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               Global_index.publish gi sbs.(0);
               Global_index.publish gi sbs.(1);
               Global_index.publish gi sbs.(2);
               Sim.barrier_wait barrier;
               note 0 (Global_index.take_empty gi)));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               note 1 (Global_index.take_empty gi)));
        ignore
          (Sim.spawn sim ~proc:2 (fun () ->
               Sim.barrier_wait barrier;
               note 2 (Global_index.take_empty gi);
               Global_index.publish gi sbs.(3)));
        fun () ->
          Global_index.check gi;
          let claimed = popped.(0) @ popped.(1) @ popped.(2) in
          (* Entries always outnumber the takers, so every take claims. *)
          if List.length claimed <> 3 then
            failwith (sprintf "global-index-churn: %d takes claimed, expected 3" (List.length claimed));
          let rec dup = function
            | a :: (b :: _ as tl) -> a = b || dup tl
            | _ -> false
          in
          if dup (List.sort compare (List.map Superblock.base claimed)) then
            failwith "global-index-churn: a superblock claimed twice (lost ABA tag?)";
          if Global_index.members gi <> 1 then
            failwith (sprintf "global-index-churn: %d members left, expected 1" (Global_index.members gi)));
  }

(* The claim CAS against the Busy-handshake free, raw: one partial
   member (4 live blocks), two threads freeing a two-block run each
   through [free_run] — their link and header writes issued inside the
   Busy window — while a third races [acquire]. The real claim is a CAS
   Idle -> Absent that fails if a reclaimer got the word first; the
   skip-revalidate mutant (the same flag [Hoard.create] wires from
   [Hoard_config.mutant]) claims with a blind store, which can stomp a
   concurrent reclaimer's Busy — the reclaimer's closing store then
   resurrects the word and [Global_index.check] finds a member the
   gauges say was claimed away. *)
let global_index_free ~mutant =
  {
    Explorer.sc_name = (if mutant = "" then "global-index-free" else "global-index-free-mutant");
    sc_describe =
      (if mutant = "" then "two-block runs freed through the Busy handshake racing an acquire's claim CAS"
       else "the same race claiming with a blind store; it stomps a Busy word at bound <= 2");
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let gi =
          Global_index.create pf ~name:"gidx" ~nclasses:1
            ~skip_revalidate:(mutant = "global-skip-revalidate") ()
        in
        let sb = Superblock.create ~base:4096 ~sb_size:4096 ~sclass:0 ~block_size:512 in
        let live = Array.init 4 (fun _ -> Superblock.alloc_block sb) in
        let barrier = Sim.new_barrier sim ~parties:3 in
        let freed = Array.make 3 0 in
        let claimed = ref None in
        (* Requeues and Not_members are legitimate outcomes (a Busy
           holder or a finished claim); only completed runs count. *)
        let free_run p addrs =
          let inside () =
            List.iter (fun addr -> pf.Platform.write ~addr ~len:8) addrs;
            Superblock.touch_header pf sb
          in
          match Global_index.free_run gi sb ~addrs ~inside with
          | Global_index.Freed _ -> freed.(p) <- List.length addrs
          | Global_index.Requeue | Global_index.Not_member _ -> ()
        in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               Global_index.publish gi sb;
               Sim.barrier_wait barrier;
               free_run 0 [ live.(0); live.(1) ]));
        ignore
          (Sim.spawn sim ~proc:1 (fun () ->
               Sim.barrier_wait barrier;
               claimed := Global_index.acquire gi ~sclass:0));
        ignore
          (Sim.spawn sim ~proc:2 (fun () ->
               Sim.barrier_wait barrier;
               free_run 2 [ live.(2); live.(3) ]));
        fun () ->
          Global_index.check gi;
          let nfreed = freed.(0) + freed.(2) in
          if Superblock.used sb <> 4 - nfreed then
            failwith
              (sprintf "global-index-free: %d blocks freed by completed runs but %d of 4 still live" nfreed
                 (Superblock.used sb));
          match !claimed with
          | Some s ->
            if Superblock.base s <> Superblock.base sb then
              failwith "global-index-free: acquire claimed a different superblock";
            if Global_index.members gi <> 0 then
              failwith "global-index-free: claimed superblock still a member"
          | None ->
            if Global_index.members gi <> 1 then
              failwith "global-index-free: unclaimed superblock left the index");
  }

(* The global-free shards end to end, through the real allocator with
   [global = Lockfree] and no front end. Thread 0 fills part of one
   superblock and exits, so adoption publishes it — live blocks inside —
   to the index. Threads 1 and 2, on heaps 2 and 3, each free one of
   those blocks: the free parks it on the freeing heap's own shard, and
   the flush reclaims that shard through a Busy handshake, the two
   racing on the superblock's word (the Requeue path). Meanwhile thread
   0 mallocs on its emptied heap: the refill's claim races both
   handshakes, and a free that finds the superblock claimed is
   forwarded to its new owner. [Hoard.check] — every shard walked, index
   validated, live bytes conserved — is the oracle, before and after the
   quiescent flush that completes any frees still parked. *)
let global_free_shards =
  {
    Explorer.sc_name = "global-free-shards";
    sc_describe =
      "two heaps free blocks of one global superblock onto their own shards and flush, racing a refill's claim";
    sc_nprocs = 3;
    sc_build =
      (fun sim pf ->
        let config =
          { (race_config ~mutant:"") with Hoard_config.nheaps = Some 3; global = Hoard_config.Lockfree }
        in
        let h = Hoard.create ~config pf in
        let a = Hoard.allocator h in
        let sb_size = config.Hoard_config.sb_size in
        let bsize, _ = pick_class (Hoard.size_classes h) ~sb_size ~min_cap:7 in
        let barrier = Sim.new_barrier sim ~parties:3 in
        let blocks = ref [||] in
        ignore
          (Sim.spawn sim ~proc:0 (fun () ->
               blocks := Array.init 4 (fun _ -> a.Alloc_intf.malloc bsize);
               a.Alloc_intf.thread_exit ();
               Sim.barrier_wait barrier;
               let mine = a.Alloc_intf.malloc bsize in
               a.Alloc_intf.free mine));
        for p = 1 to 2 do
          ignore
            (Sim.spawn sim ~proc:p (fun () ->
                 Sim.barrier_wait barrier;
                 a.Alloc_intf.free !blocks.(p);
                 a.Alloc_intf.flush ()))
        done;
        fun () ->
          Hoard.check h;
          Hoard.flush_caches h;
          Hoard.check h;
          let live = (a.Alloc_intf.stats ()).Alloc_stats.live_bytes in
          if live <> 2 * bsize then
            failwith (sprintf "global-free-shards: %dB live after the flush, expected %dB" live (2 * bsize)));
  }

let all () =
  [
    lost_update;
    locked_update;
    transfer_free_race ~mutant:"";
    transfer_free_race ~mutant:"skip-owner-recheck";
    emptiness_trim ~mutant:"";
    emptiness_trim ~mutant:"emptiness-off-by-one";
    registry_churn;
    lockfree_stack ~mutant:"";
    lockfree_stack ~mutant:"large-cache-no-aba";
    deferred_remote_free ~mutant:"";
    deferred_remote_free ~mutant:"deferred-lost-node";
    deferred_own_overflow;
    remote_queue_drain;
    large_cache_churn ~mutant:"";
    large_cache_churn ~mutant:"large-cache-no-aba";
    exit_adoption ~mutant:"" ();
    exit_adoption ~mutant:"orphan-lost-superblock" ();
    exit_adoption ~global:Hoard_config.Lockfree ~mutant:"" ();
    exit_adoption ~global:Hoard_config.Lockfree ~mutant:"orphan-lost-superblock" ();
    global_transfer;
    global_index_churn ~mutant:"";
    global_index_churn ~mutant:"global-no-aba";
    global_index_free ~mutant:"";
    global_index_free ~mutant:"global-skip-revalidate";
    global_free_shards;
  ]

let find name = List.find_opt (fun s -> s.Explorer.sc_name = name) (all ())

let help () =
  all ()
  |> List.map (fun s -> sprintf "  %-26s %s" s.Explorer.sc_name s.Explorer.sc_describe)
  |> String.concat "\n"
