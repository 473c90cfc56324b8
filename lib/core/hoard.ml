type t = {
  pf : Platform.t;
  cfg : Hoard_config.t;
  classes : Size_class.t;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  owner : int;
  heaps : Heap.t array; (* per-processor heaps, ids 1..N *)
  global : Global_heap.t; (* heap 0, locked or lock-free per cfg.global *)
  large : Locked_large.t; (* with the large cache in front when cfg.large_cache > 0 *)
  fe : Thread_cache.t option; (* [None] = the paper's exact algorithm *)
  (* Test-mutant plumbing (cfg.mutant): the real allocator always runs
     with trim_slack = cfg.slack and the ownership re-check on. *)
  trim_slack : int;
  skip_owner_recheck : bool;
  orphan_lost : bool;
}

type heap_info = Heap.info = { heap_id : int; u_bytes : int; a_bytes : int; superblocks : int; empty_superblocks : int }

let config t = t.cfg

let nheaps t = Array.length t.heaps

let path_work = 30

(* Heap [id]'s record; [None] for heap 0 under a global heap that keeps
   none (the lock-free one): its blocks have no lock to take and park on
   the freeing heap's shard instead. *)
let heap_by_id t id = Heap.find t.heaps ~zero:(Global_heap.heap0 t.global) id

(* Fibonacci hash so consecutive thread ids spread across heaps. *)
let hash_tid tid = (tid * 2654435761) land max_int

(* The calling thread's heap: its processor's when there is one heap per
   processor, else its thread id's hash over the explicit heap count. *)
let pick_heap pf (cfg : Hoard_config.t) heaps =
  let slot = if cfg.nheaps = None then pf.Platform.self_proc () else hash_tid (pf.Platform.self_tid ()) in
  heaps.(slot mod Array.length heaps)

let my_heap t = pick_heap t.pf t.cfg t.heaps

(* Emptiness threshold crossed: both clauses of the invariant fail. The
   comparison uses usable bytes (excluding header and carving waste) so
   that crossing the threshold guarantees an at-least-f-empty superblock
   exists to transfer. *)
let too_empty ?slack t core =
  let k =
    match slack with
    | Some k -> k
    | None -> t.cfg.slack
  in
  let u = Heap_core.u core and a = Heap_core.usable_a core in
  u < a - (k * t.cfg.sb_size) && float_of_int u < (1.0 -. t.cfg.empty_fraction) *. float_of_int a

(* Return every pending remote free [detach]ed before the lock to [h]'s
   core. A forward into a global superblock with no heap-0 record to go
   to parks on [h]'s shard of the global heap, which may then have passed
   its cap. Caller holds [h]'s lock. *)
let drain_pending t h ~detached ~spill =
  let mine, to_global = Heap.drain h detached ~peer:(heap_by_id t) ~spill in
  Global_heap.park t.global h to_global ~spill ~locked:true;
  mine

(* Fetch a superblock usable for [sclass] from the global heap or the OS,
   and insert it into [h] (whose lock the caller holds). *)
let refill t h ~sclass ~block_size ~spill =
  let sb =
    match Global_heap.take t.global h ~sclass ~spill with
    | Some sb ->
      if Superblock.is_empty sb && (Superblock.sclass sb <> sclass || Superblock.block_size sb <> block_size)
      then Superblock.reinit sb ~sclass ~block_size;
      Alloc_stats.note h.sh Event_ring.Sb_from_global ~sclass ~arg:(Superblock.base sb);
      sb
    | None ->
      let base = t.pf.Platform.page_map ~bytes:t.cfg.sb_size ~align:t.cfg.sb_size ~owner:t.owner in
      let sb = Superblock.create ~base ~sb_size:t.cfg.sb_size ~sclass ~block_size in
      Sb_registry.register t.reg sb;
      Alloc_stats.on_map t.stats ~bytes:t.cfg.sb_size;
      Alloc_stats.note h.sh Event_ring.Sb_map ~sclass ~arg:t.cfg.sb_size;
      sb
  in
  Heap_core.insert h.core sb;
  Superblock.touch_header t.pf sb

(* Lock the heap owning [sb], re-checking ownership after acquisition: the
   superblock may migrate to the global heap between the read and the lock
   (the paper's free protocol). An owner-0 superblock without a heap-0
   record has no lock to take — it returns [None] and the caller parks
   the block on its own heap's shard of the global heap instead. *)
let rec lock_owner t sb =
  match heap_by_id t (Superblock.owner sb) with
  | None -> None
  | Some h ->
    h.lock.acquire ();
    (* The skip-owner-recheck mutant returns without re-reading the owner:
       the superblock may have migrated to the global heap between the read
       above and the acquisition, and the caller then frees into the wrong
       heap — the bug the schedule explorer is expected to find. *)
    if t.skip_owner_recheck || Superblock.owner sb = Heap.id h then Some h
    else begin
      h.lock.release ();
      lock_owner t sb
    end

(* The paper's post-free bookkeeping, factored so queue drains share it.
   Caller holds [h]'s lock. With [deep] (drains return many blocks at
   once), keep transferring until the invariant is restored; without it,
   move at most ONE at-least-f-empty superblock to the global heap — one
   is enough to restore the invariant when it held before the free (each
   free releases at most one block); heaps that malloc drove far below the
   threshold converge back over subsequent frees instead of exiling their
   superblocks all at once. Heap 0 itself only releases its surplus. *)
let trim_heap ?(deep = false) t h ~sclass =
  if Heap.id h = 0 then Global_heap.put t.global h []
  else begin
    let continue_ = ref true in
    while !continue_ && too_empty ~slack:t.trim_slack t h.core do
      Alloc_stats.note h.sh Event_ring.Emptiness_cross ~sclass ~arg:(Heap_core.u h.core);
      (match Heap_core.pick_victim ~protect_last:true h.core ~max_fullness:(1.0 -. t.cfg.empty_fraction) with
       | None -> continue_ := false
       | Some victim -> Global_heap.put t.global h [ victim ]);
      if not deep then continue_ := false
    done
  end

(* Park blocks of global superblocks that have no heap-0 record to lock
   on the calling thread's heap's shard, from a caller holding no lock:
   one pre-linked CAS, which writes only the links not already in place
   (custody marks stay on until the reclaim clears them). Returns what
   completing an over-full shard spilled. *)
let park_global t items =
  let spill = ref [] in
  Global_heap.park t.global (my_heap t) items ~spill ~locked:false;
  !spill

let unlinked blocks = List.map (fun (sb, addr) -> (sb, addr, 0)) blocks

(* Classic locked disposal of blocks already counted as freed (they sat
   in a cache or overflowed a queue), batched: one heap-lock acquisition
   covers every block with the same current owner; blocks that migrate
   mid-round are retried next round, in batch order. The first block's
   owner is pinned by [lock_owner], so every round frees at least one
   block. Each block comes with the link its first word holds, so under
   the lock only the links that change are written ([Heap.link_runs]):
   one per run end of a batch in a cache's newest-first order. *)
let rec dispose_batch t blocks =
  let global, rest = List.partition (fun (sb, _, _) -> Option.is_none (heap_by_id t (Superblock.owner sb))) blocks in
  let blocks = if global <> [] then List.rev_append (unlinked (park_global t global)) rest else rest in
  match blocks with
  | [] -> ()
  | (sb0, _, _) :: _ ->
    (match lock_owner t sb0 with
     | None -> dispose_batch t blocks (* migrated to owner 0 since the partition: redo it *)
     | Some h ->
       let id = Heap.id h in
       let mine, later = List.partition (fun (sb, _, _) -> Superblock.owner sb = id) blocks in
       Heap.link_runs t.pf mine;
       List.iter (fun (sb, addr, _) -> Heap.free_owned h sb addr) mine;
       Heap.touch_headers t.pf (List.map (fun (sb, addr, _) -> (sb, addr)) mine);
       if mine <> [] then trim_heap ~deep:true t h ~sclass:(Superblock.sclass sb0);
       h.lock.release ();
       dispose_batch t later)

let dispose_spill t spill = if spill <> [] then dispose_batch t (unlinked spill)

(* Every locked operation on a heap that first takes in its pending
   remote frees: the channel is detached before the lock, drained under
   it, [f] runs with the count drained and the spill, and spilled
   forwards (a drain met an over-full peer queue) take the locked path
   only after the release, with no heap lock held. *)
let with_drained t h f =
  let spill = ref [] in
  let detached = Heap.detach h in
  h.lock.acquire ();
  let drained = drain_pending t h ~detached ~spill in
  let r = f ~drained ~spill in
  h.lock.release ();
  dispose_spill t !spill;
  r

(* Route cache-evicted blocks out, partitioned by the owner observed now.
   They come newest first with the links their frees wrote, and every
   group keeps that order, in which each block's link already points at
   the next one of the cache. Owner-0 blocks without a heap-0 record park
   on the calling heap's shard of the global heap in one pre-linked CAS.
   Each other group goes to its owner's remote-free channel
   ([Heap.push]: the calling heap's own channel is pushed with [~own]),
   and whatever a channel rejects goes to the classic locked path in one
   batch. When the calling heap's own channel rejects its group, the
   rest of that class leaves the cache too ([Thread_cache.take_class]):
   its own-heap blocks join the locked batch ahead of the rejects, which
   keeps the batch in the cache's newest-first chain order, and its
   other blocks are routed like any eviction's. So the heap-lock trip
   carries the whole class, not a half the next frees would evict down
   the same path. Each block's owner must be read ONCE: on real domains
   a concurrent transfer can change it between two reads, and consing
   onto one owner's group while storing under the other's index copies a
   whole group — every block in it queued twice, a double free at the
   second drain. *)
let surrender_many t c blocks =
  let sh = Thread_cache.shard c in
  let overflow = ref [] and own_id = Heap.id (my_heap t) in
  let rec route ~own_rejected blocks =
    let groups = Array.make (Array.length t.heaps + 1) [] in
    List.iter
      (fun ((sb, _, _) as b) ->
        let id = Superblock.owner sb in
        groups.(id) <- b :: groups.(id))
      (List.rev blocks);
    Array.iteri
      (fun id group ->
        if group <> [] then
          match heap_by_id t id with
          | None ->
            overflow := unlinked (park_global t group) @ !overflow;
            Heap.note_deferred sh group
          | Some _ when id = own_id && own_rejected -> overflow := group @ !overflow
          | Some h ->
            let rejects = Heap.push h ~own:(id = own_id) ~sh group in
            overflow := rejects @ !overflow;
            if id = own_id && rejects <> [] then begin
              let sb, _, _ = List.hd group in
              route ~own_rejected:true (Thread_cache.take_class c ~sclass:(Superblock.sclass sb))
            end)
      groups
  in
  route ~own_rejected:false blocks;
  if !overflow <> [] then dispose_batch t !overflow

let create ?(config = Hoard_config.default) ?obs pf =
  Hoard_config.validate config;
  if config.sb_size < pf.Platform.page_size then
    invalid_arg "Hoard.create: sb_size must be at least the platform page size";
  let n =
    match config.nheaps with
    | Some n -> n
    | None -> pf.Platform.nprocs
  in
  (* b = 1.2: the paper's size-class growth factor. *)
  let classes = Size_class.create ~growth:1.2 ~max_small:(Hoard_config.max_small config) () in
  (* Stats shards mirror the lock domains: shard [id] for heap [id]
     (0 = global), one extra shard for the large path. Event rings, when
     tracing is on, mirror the same domains. Thread caches add their own
     shard (and ring) as they appear. *)
  let stats = Alloc_stats.create ~shards:(n + 2) () in
  (* Every lock-free structure gets its own labelled retry hook, so the
     unified alloc.cas_retries total breaks down per structure in exports. *)
  let retry label = Alloc_stats.retry_hook stats ~label in
  let owner = Alloc_intf.next_owner () in
  let lcache =
    if config.large_cache > 0 then
      Some
        (Large_cache.create pf ~name:"hoard.lcache" ~cap:config.large_cache
           ~aba_tag:(config.mutant <> "large-cache-no-aba")
           ~on_retry:(retry "large-cache") ())
    else None
  in
  (* Rings in the order large, heap1.., global. *)
  let large =
    Locked_large.create pf ~owner ~stats ~shard:(n + 1)
      ?ring:(Option.map (fun o -> Obs.new_ring o "large") obs)
      ?cache:lcache
      ~threshold:(Hoard_config.max_small config)
  in
  let heaps = Array.init n (fun i -> Heap.create pf config ~classes ~stats ?obs (i + 1)) in
  let reg = Sb_registry.create pf ~sb_size:config.sb_size in
  (* The front end hands what it evicts to [surrender_many], which needs
     the [t] it belongs to. *)
  let surrender = ref (fun _ _ -> ()) in
  let fe =
    if config.front_end = 0 then None
    else
      Some
        (Thread_cache.create pf ~front_end:config.front_end ~classes ~stats ?obs
           ~home:(fun () -> Heap.id (pick_heap pf config heaps))
           ~surrender:(fun c pairs -> !surrender c pairs)
           ())
  in
  let t =
    {
      pf;
      cfg = config;
      classes;
      reg;
      stats;
      owner;
      heaps;
      global = Global_heap.create pf config ~classes ~stats ~reg ?obs ~heaps ();
      large;
      fe;
      trim_slack = (config.slack + if config.mutant = "emptiness-off-by-one" then 1 else 0);
      skip_owner_recheck = config.mutant = "skip-owner-recheck";
      orphan_lost = config.mutant = "orphan-lost-superblock";
    }
  in
  (match obs with
   | Some o -> Alloc_stats.publish stats (Obs.metrics o)
   | None -> ());
  surrender := surrender_many t;
  t

(* Take [n] blocks of [sclass] from [h], whose lock the caller holds,
   refilling it from the global heap or the OS whenever it runs dry; [f]
   sees each batch as the heap core carves it. *)
let take_blocks t (h : Heap.t) ~sclass ~block_size ~n ~spill f =
  let got = ref 0 in
  while !got < n do
    match Heap_core.malloc_batch h.core ~sclass ~block_size ~n:(n - !got) with
    | [] -> refill t h ~sclass ~block_size ~spill
    | batch ->
      got := !got + List.length batch;
      f batch
  done

(* The one front-end miss, for [malloc] ([~n:1]) and for the part of a
   batch malloc the cache could not cover: the remote-free channel is
   detached first, then one lock acquisition drains it and takes
   [n + cap/2] blocks, [n] to return and the rest into the class's
   cache, which the caller found empty. A drain that freed anything is
   a free into [h], so the invariant is restored before the release. *)
let malloc_fill t c ~size ~sclass ~block_size ~n =
  let h = my_heap t in
  with_drained t h (fun ~drained ~spill ->
    let n_cached = Thread_cache.fill_size c ~sclass in
    let blocks = ref [] in
    take_blocks t h ~sclass ~block_size ~n:(n + n_cached) ~spill (fun batch -> blocks := List.rev_append batch !blocks);
    Heap.touch_headers t.pf (List.rev_map (fun (addr, sb) -> (sb, addr)) !blocks);
    let out = List.filteri (fun i _ -> i < n) !blocks and cached = List.filteri (fun i _ -> i >= n) !blocks in
    List.iter (fun _ -> Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size) out;
    if n_cached > 0 then begin
      (* Fill surplus enters front-end custody, so a wild free of a
         cached address is caught as a double free, not recycled. *)
      Thread_cache.fill c ~sclass cached;
      Alloc_stats.on_cache_fill h.sh ~blocks:n_cached ~bytes:(n_cached * block_size)
    end;
    if drained > 0 then trim_heap ~deep:true t h ~sclass;
    List.iter (fun (addr, _) -> t.pf.Platform.write ~addr ~len:8) out;
    List.map fst out)

let malloc t size =
  if size <= 0 then invalid_arg "Hoard.malloc: size must be positive";
  t.pf.Platform.work path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    match t.fe with
    | Some fe ->
      let c = Thread_cache.mine fe in
      (match Thread_cache.pop c ~size ~sclass with
       | Some addr -> addr
       | None -> List.hd (malloc_fill t c ~size ~sclass ~block_size ~n:1))
    | None ->
      let h = my_heap t in
      let spill = ref [] in
      h.lock.acquire ();
      let addr, sb =
        match Heap_core.malloc h.core ~sclass ~block_size with
        | Some block -> block
        | None ->
          refill t h ~sclass ~block_size ~spill;
          (* refill installed an allocatable superblock *)
          Option.get (Heap_core.malloc h.core ~sclass ~block_size)
      in
      Superblock.touch_header t.pf sb;
      Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size;
      (* The allocator links free blocks through their first word. *)
      t.pf.Platform.write ~addr ~len:8;
      h.lock.release ();
      dispose_spill t !spill;
      addr
  end

(* Batched allocation: one [path_work] for the whole request. With a
   front end, the calling thread's cache serves first, block by block as
   a single cache-hit malloc would, and whatever it cannot cover is one
   [malloc_fill], the single malloc's miss. Without one, the whole
   request takes one heap-lock acquisition. *)
let malloc_many t n size =
  if n <= 0 then [||]
  else if size <= 0 then invalid_arg "Hoard.malloc: size must be positive"
  else begin
    t.pf.Platform.work path_work;
    if Locked_large.is_large t.large size then Array.init n (fun _ -> Locked_large.malloc t.large size)
    else begin
      let sclass = Size_class.class_of_size t.classes size in
      let block_size = Size_class.size_of_class t.classes sclass in
      let out = Array.make n 0 and got = ref 0 in
      let put addr =
        out.(!got) <- addr;
        incr got
      in
      (match t.fe with
       | Some fe ->
         let c = Thread_cache.mine fe in
         let rec pop () =
           if !got < n then
             match Thread_cache.pop c ~size ~sclass with
             | Some addr ->
               put addr;
               pop ()
             | None -> List.iter put (malloc_fill t c ~size ~sclass ~block_size ~n:(n - !got))
         in
         pop ()
       | None ->
         let h = my_heap t in
         with_drained t h (fun ~drained:_ ~spill ->
           let from = ref [] in
           take_blocks t h ~sclass ~block_size ~n ~spill
             (List.iter (fun (addr, sb) ->
                put addr;
                Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size;
                t.pf.Platform.write ~addr ~len:8;
                from := (sb, addr) :: !from));
           Heap.touch_headers t.pf (List.rev !from)));
      out
    end
  end

(* The body of a free, after its [path_work]: [free] charges that once per
   block, [free_many] once per batch. *)
let free_block t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb -> (
    match t.fe with
    | Some fe ->
      let c = Thread_cache.mine fe in
      (* A block absorbed by ANY thread's cache (or parked on a remote
         queue) stays bitmap-live, so liveness alone cannot catch a second
         free — and scanning only the caller's own cache missed the
         cross-thread case entirely. The superblock's custody bit is the
         shared O(1) record of "freed but still cached", whoever holds
         it. *)
      if (not (Superblock.is_block_live sb addr)) || Superblock.is_block_cached sb addr then
        failwith "Hoard.free: double free (cached)";
      Thread_cache.push c ~sclass:(Superblock.sclass sb) sb addr;
      Alloc_stats.on_cached_free (Thread_cache.shard c);
      t.pf.Platform.write ~addr ~len:8
    | None -> (
      (* Take the block's line and the header's before locking, so
         neither read-for-ownership sits inside the owner heap's critical
         section. Each is usually a coherence miss: the block was last
         written by the processor that used it, the header by the last
         free or malloc in its superblock. The block is the allocator's
         from the call on, and the free reads the owner that picks the
         lock from the header anyway. The link store and header write
         under the lock then hit. *)
      t.pf.Platform.write ~addr ~len:8;
      Superblock.touch_header t.pf sb;
      match lock_owner t sb with
      | Some h ->
        let my = my_heap t in
        if h != my && Heap.id h <> 0 then
          Alloc_stats.note h.sh Event_ring.Remote_free ~sclass:(Superblock.sclass sb) ~arg:addr;
        t.pf.Platform.write ~addr ~len:8;
        Heap_core.free h.core sb addr;
        Superblock.touch_header t.pf sb;
        Alloc_stats.on_free h.sh ~usable:(Superblock.block_size sb);
        trim_heap t h ~sclass:(Superblock.sclass sb);
        h.lock.release ()
      | None ->
        (* The superblock lives in a global heap without a heap-0 record:
           park the block on MY heap's shard of it (one CAS; my heap's next
           reclaim completes the free through the Busy handshake). The
           block enters front-end-style custody — counted as freed now,
           still charged to live bytes until reclaimed — and only MY
           heap's lock is taken, for its stats shard and ring. *)
        if (not (Superblock.is_block_live sb addr)) || Superblock.is_block_cached sb addr then
          failwith "Hoard.free: double free";
        let h = my_heap t in
        let spill = ref [] in
        h.lock.acquire ();
        t.pf.Platform.write ~addr ~len:8;
        Superblock.mark_cached sb addr;
        Global_heap.park t.global h [ (sb, addr, 0) ] ~spill ~locked:true;
        Alloc_stats.on_cached_free h.sh;
        Alloc_stats.note h.sh Event_ring.Deferred_enqueue ~sclass:(Superblock.sclass sb) ~arg:addr;
        h.lock.release ();
        dispose_spill t !spill))
  | None -> if not (Locked_large.try_free t.large ~addr) then invalid_arg "Hoard.free: foreign pointer"

let free t addr =
  t.pf.Platform.work path_work;
  free_block t addr

(* Batched free: with a front end, one [path_work] for the whole batch,
   then every block takes the single free's body (its checks, its cache
   push, its flush on overflow). Without one, the loop of single frees:
   the paper's algorithm has no batch free. *)
let free_many t addrs =
  if Option.is_none t.fe then Array.iter (free t) addrs
  else if Array.length addrs > 0 then begin
    t.pf.Platform.work path_work;
    Array.iter (free_block t) addrs
  end

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else invalid_arg "Hoard.usable_size: dead block"
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Hoard.usable_size: foreign pointer")

(* In place whenever the block's superblock already carves pieces big
   enough: one registry lookup instead of the generic usable_size round
   trip. Growth is the generic allocate-copy-free. *)
let realloc t ~addr ~size =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb when size > 0 && Superblock.is_block_live sb addr && size <= Superblock.block_size sb -> addr
  | _ ->
    Alloc_api.generic_realloc t.pf ~malloc:(malloc t) ~free:(free t) ~usable_size:(usable_size t) ~addr ~size

let lookup t addr = Sb_registry.lookup t.reg ~addr

let heap_ring t id =
  if id < 0 || id > Array.length t.heaps then None
  else Option.bind (heap_by_id t id) (fun h -> Alloc_stats.ring h.sh)

(* In-thread flush: cache out to the owners' queues, then drain and trim
   the calling thread's own heap, plus its shard of the global heap
   (where frees into global superblocks park when heap 0 has no record) —
   all without the heap-0 lock. *)
let flush t =
  Option.iter Thread_cache.flush t.fe;
  if Option.is_some t.fe || Option.is_none (heap_by_id t 0) then begin
    let h = my_heap t in
    with_drained t h (fun ~drained ~spill ->
      if drained > 0 then trim_heap ~deep:true t h ~sclass:0;
      Global_heap.complete t.global h ~spill)
  end

(* Thread retirement: the front-end cache is flushed AND retired (a
   recycled thread id starts from a fresh cache instead of inheriting
   stale slots), pending remote frees are drained, and then the heap
   assignment itself is released — every superblock still on the exiting
   thread's heap is adopted by the global heap. Under per-tid assignment
   no live thread maps to this heap any more, so without adoption its
   superblocks would be stranded: unreachable for reuse yet still counted
   against the held envelope, inflating blowup beyond O(U + P) as threads
   churn. Threads sharing the heap (per-proc assignment, or a tid hash
   collision) simply refill from the global heap afterwards — adoption is
   a transfer, never a release, so no live block moves or dies.

   Idempotent: a second call finds no cache and an empty heap. *)
let on_thread_exit t =
  Option.iter Thread_cache.retire t.fe;
  let h = my_heap t in
  with_drained t h (fun ~drained:_ ~spill:_ ->
    let orphans = ref [] in
    Heap_core.iter h.core (fun sb -> orphans := sb :: !orphans);
    List.iter
      (fun sb ->
        Heap_core.remove h.core sb;
        Alloc_stats.note h.sh Event_ring.Orphan_adopt ~sclass:(Superblock.sclass sb) ~arg:(Superblock.base sb))
      !orphans;
    (if t.orphan_lost then
       (* MUTANT: the superblocks were unhooked from the exiting heap but
          never handed to the global heap — their blocks (and their held
          bytes) leak out of every heap's accounting, which [check]'s
          live-bytes conservation reports and the schedule explorer is
          expected to find. *)
       List.iter
         (fun sb ->
           Superblock.set_owner sb 0;
           Superblock.touch_header t.pf sb)
         !orphans
     else Global_heap.put t.global h !orphans))

(* Quiescent: free one block into its owner; returns the owner's stats
   shard. *)
let q_free t sb addr =
  let id = Superblock.owner sb in
  if id = 0 then Global_heap.q_free t.global sb ~addr else Heap_core.free t.heaps.(id - 1).core sb addr;
  Alloc_stats.shard t.stats id

let free_quiescent t addr =
  match Sb_registry.lookup t.reg ~addr with
  | None -> invalid_arg "Hoard.free_quiescent: not a superblock block"
  | Some sb -> Alloc_stats.on_free (q_free t sb addr) ~usable:(Superblock.block_size sb)

(* Quiescent-only: returns every cached and queued block straight to the
   heap cores WITHOUT platform locks, costs or events (on the simulated
   platform those are effects, usable only inside simulated threads).
   Afterwards live bytes equal program-held bytes exactly, and the
   emptiness invariant is re-established; surplus empty superblocks stay
   mapped (releasing them would charge platform unmaps). *)
let flush_caches t =
  let dispose (sb, addr) =
    Superblock.clear_cached sb addr;
    Alloc_stats.on_drain (q_free t sb addr) ~usable:(Superblock.block_size sb)
  in
  Option.iter (fun fe -> Thread_cache.drain_quiescent fe (fun sb addr -> dispose (sb, addr))) t.fe;
  (* [h]'s channel and its shard of the global heap. The quiescent drains
     use charge-free peek/poke, so they are cost- and schedule-invisible. *)
  let take h = List.rev_append (Global_heap.q_take t.global h) (Heap.take_quiescent h) in
  (* At quiescence owners are stable, so one pass routes every queued
     block to its final heap. *)
  Option.iter (fun h0 -> List.iter dispose (take h0)) (heap_by_id t 0);
  Array.iter (fun h -> List.iter dispose (take h)) t.heaps;
  Array.iter
    (fun (h : Heap.t) ->
      let continue_ = ref true in
      while !continue_ && too_empty t h.core do
        match Heap_core.pick_victim ~protect_last:true h.core ~max_fullness:(1.0 -. t.cfg.empty_fraction) with
        | None -> continue_ := false
        | Some victim ->
          Global_heap.q_put t.global victim;
          Alloc_stats.note ~trace:false (Alloc_stats.shard t.stats 0) Event_ring.Sb_to_global
            ~sclass:(Superblock.sclass victim) ~arg:(Superblock.base victim)
      done)
    t.heaps

let size_classes t = t.classes

(* Lock-free reads, like [pp_heaps]: call at quiescence (after the run, or
   from outside any simulated thread — heap locks perform effects). *)
let fullness_profile t =
  let nclasses = Size_class.count t.classes in
  Array.append
    [| ("global", Heap_core.class_profile ~nclasses (Global_heap.iter_members t.global)) |]
    (Array.map
       (fun (h : Heap.t) -> (Printf.sprintf "heap%d" (Heap.id h), Heap_core.class_profile ~nclasses (Heap_core.iter h.core)))
       t.heaps)

let heap_info t id = if id = 0 then Global_heap.info t.global else Heap.info t.heaps.(id - 1)

let cache_counts t = Option.fold ~none:[] ~some:Thread_cache.counts t.fe

let iter_global_free t f = Array.iter (fun h -> Global_heap.iter_parked t.global h (f ~heap:(Heap.id h))) t.heaps

(* Heap 0's entry adds the blocks parked on the per-heap shards of the
   global heap, which all wait on global superblocks. *)
let remote_queue_lengths t =
  let parked = Array.fold_left (fun n h -> n + Global_heap.parked t.global h) 0 t.heaps in
  Array.init
    (Array.length t.heaps + 1)
    (fun id -> (if id = 0 then parked else 0) + Option.fold ~none:0 ~some:Heap.pending (heap_by_id t id))

let large_cache_length t =
  match Locked_large.cache t.large with
  | None -> 0
  | Some c -> Large_cache.length c

let invariant_holds t ~heap_id =
  (* The invariant a free restores: either the heap is not too empty, or
     no transferable superblock remains (every candidate is some class's
     last, protected against ping-pong). *)
  match heap_by_id t heap_id with
  | None -> true
  | Some h ->
    (not (too_empty t h.core))
    || not (Heap_core.has_victim h.core ~max_fullness:(1.0 -. t.cfg.empty_fraction) ~protect_last:true)

let check t =
  Array.iter Heap.check t.heaps;
  Global_heap.check t.global;
  Option.iter Thread_cache.check t.fe;
  let s = Alloc_stats.snapshot t.stats in
  let total_u =
    Array.fold_left (fun acc (h : Heap.t) -> acc + Heap_core.u h.core) (Global_heap.info t.global).u_bytes t.heaps
  in
  if total_u + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Hoard.check: live-bytes accounting mismatch";
  (* Large cache: buckets within capacity, stacks structurally sound,
     every parked region mapped and decommitted. *)
  match Locked_large.cache t.large with
  | None -> ()
  | Some c -> Large_cache.check c

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"hoard" ~owner:t.owner ~large_threshold:(Hoard_config.max_small t.cfg)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ~malloc_batch:(fun n size -> malloc_many t n size)
    ~free_batch:(fun addrs -> free_many t addrs)
    ~flush:(fun () -> flush t)
    ~thread_exit:(fun () -> on_thread_exit t)
    ~realloc:(fun ~addr ~size -> realloc t ~addr ~size)
    ()

let factory ?(config = Hoard_config.default) ?obs () =
  {
    Alloc_intf.label = "hoard";
    description = "per-processor heaps + global heap, emptiness invariant (the paper's allocator)";
    instantiate = (fun pf -> allocator (create ~config ?obs pf));
    vmem_backend = config.Hoard_config.vmem_backend;
  }

let pp_heaps fmt t =
  (* One heap's header line, then per size class over its superblocks. *)
  let pp_heap label (i : heap_info) iter =
    Format.fprintf fmt "@[<v 2>%s: %d superblocks, u=%dB a=%dB (%d empty)@," label i.superblocks i.u_bytes i.a_bytes
      i.empty_superblocks;
    let nclasses = Size_class.count t.classes in
    let count, used, cap = Heap_core.class_totals ~nclasses iter in
    for c = 0 to nclasses - 1 do
      if count.(c) > 0 then
        Format.fprintf fmt "class %4dB: %2d sb, %4d/%4d blocks (%.0f%%)@,"
          (Size_class.size_of_class t.classes c)
          count.(c) used.(c) cap.(c)
          (100.0 *. float_of_int used.(c) /. float_of_int (max 1 cap.(c)))
    done;
    Format.fprintf fmt "@]@,"
  in
  Format.fprintf fmt "@[<v>";
  pp_heap "global" (Global_heap.info t.global) (Global_heap.iter_members t.global);
  Array.iter (fun (h : Heap.t) -> pp_heap (Printf.sprintf "heap %d" (Heap.id h)) (Heap.info h) (Heap_core.iter h.core)) t.heaps;
  Format.fprintf fmt "@]"
