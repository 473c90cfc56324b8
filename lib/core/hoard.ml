module IntMap = Map.Make (Int)

type heap = {
  core : Heap_core.t;
  lock : Platform.lock;
  sh : Alloc_stats.shard;
  ring : Event_ring.t option; (* same lock domain as [sh]; None when tracing is off *)
  rq_lock : Platform.lock; (* innermost lock: never held while acquiring any other *)
  mutable rq_blocks : (Superblock.t * int) list; (* remote frees pending a drain, newest first *)
  mutable rq_len : int;
  (* cfg.deferred: the unbounded deferred free list replacing the bounded
     queue above — producers CAS-push, the owner exchange-reclaims. *)
  dfl : Deferred_list.t option;
  (* cfg.global = Lockfree, per-processor heaps only: this heap's shard of
     the global-free list. Threads on this heap park the blocks they free
     into global superblocks here; only this heap's refills and flushes
     reclaim it — or the parking thread, once it outgrows
     [global_free_cap] — so no single word serialises every global free. *)
  gfl : Deferred_list.t option;
}

(* A thread's front-end cache: per size class, up to [front_end] block
   addresses served and absorbed without any lock. The blocks stay
   bitmap-allocated in their superblocks and charged to the owning heap's
   [u] (and to live bytes), so the emptiness invariant and [check] reason
   about them exactly as if the program still held them. *)
type tcache = {
  tc_slots : (int * Superblock.t) list array; (* per class, newest first *)
  tc_count : int array;
  tc_sh : Alloc_stats.shard; (* single writer: the owning thread *)
  tc_ring : Event_ring.t option;
  (* Domain currently driving this cache. Thread ids recycle across
     sequential domains, and [Domain.at_exit] hooks die with their
     domain — so the exit flush must be re-registered whenever a NEW
     domain adopts the tid, not only at cache creation. *)
  mutable tc_domain : int;
}

(* Sanitizer state: the most recent [q_cap] freed blocks are held back
   from reuse (FIFO), still bitmap-live in their superblocks, so a second
   free or a late touch through the checked platform is diagnosable
   instead of silently recycling. Host mutex: step-atomic on the
   simulator, real exclusion across domains, zero simulated cost. *)
type san = {
  q : int Queue.t; (* quarantined block addresses, oldest first *)
  q_set : (int, unit) Hashtbl.t;
  q_cap : int;
  q_mu : Mutex.t;
}

type t = {
  pf : Platform.t;
  cfg : Hoard_config.t;
  classes : Size_class.t;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  owner : int;
  global : heap;
  heaps : heap array; (* per-processor heaps, ids 1..N *)
  large : Locked_large.t;
  (* cfg.large_cache > 0: the lock-free MPSC cache in front of the large
     path, held here (as well as inside [large]) for check/introspection. *)
  lcache : Large_cache.t option;
  reservoir : Sb_reservoir.t option; (* cfg.reservoir > 0: the empty-superblock parking lot *)
  (* cfg.global = Lockfree: heap 0's Dlist fullness groups are replaced by
     the CAS-published fullness index — its core stays empty, its lock is
     never taken on the transfer path, and frees into global superblocks
     run through the freeing heap's global-free shard + the index's Busy
     protocol. *)
  gindex : Global_index.t option;
  obs : Obs.t option;
  fe : int; (* cached [cfg.front_end]; 0 = the paper's exact algorithm *)
  rq_cap : int;
  tcaches : tcache IntMap.t Atomic.t; (* tid -> cache; replaced under [tc_mu] *)
  tc_mu : Mutex.t; (* host mutex: serialises tcache creation, zero simulated cost *)
  creator_did : int; (* domain that built [t]; its threads skip at-exit hooks *)
  san : san option;
  (* Test-mutant plumbing (cfg.mutant): the real allocator always runs
     with trim_slack = cfg.slack and the ownership re-check on. *)
  trim_slack : int;
  skip_owner_recheck : bool;
  park_before_decommit : bool;
  orphan_lost : bool;
}

exception Sanitizer_violation of string

type heap_info = {
  heap_id : int;
  u_bytes : int;
  a_bytes : int;
  superblocks : int;
  empty_superblocks : int;
}

let create ?(config = Hoard_config.default) ?obs pf =
  Hoard_config.validate config;
  if config.sb_size < pf.Platform.page_size then
    invalid_arg "Hoard.create: sb_size must be at least the platform page size";
  let n =
    match config.nheaps with
    | Some n -> n
    | None -> pf.Platform.nprocs
  in
  let classes = Size_class.create ~growth:config.growth ~max_small:(Hoard_config.max_small config) () in
  (* Stats shards mirror the lock domains: shard [id] for heap [id]
     (0 = global), one extra shard for the large path. Event rings, when
     tracing is on, mirror the same domains. Thread caches add their own
     shard (and ring) as they appear. *)
  let stats = Alloc_stats.create ~shards:(n + 2) () in
  let ring name =
    match obs with
    | None -> None
    | Some o -> Some (Obs.new_ring o name)
  in
  (* The lock-free structures share one contention counter and one mutant
     switch each: "reservoir-no-aba" freezes the ABA tag of the reservoir,
     "large-cache-no-aba" that of the large cache, "deferred-lost-node"
     drops a deferred push's CAS retry. *)
  let aba_tag = config.mutant <> "reservoir-no-aba" in
  (* Every lock-free structure gets its own labelled retry hook, so the
     unified alloc.cas_retries total breaks down per structure in exports. *)
  let retry label = Alloc_stats.retry_hook stats ~label in
  let lockfree_global = config.global = Hoard_config.Lockfree in
  let use_dfl = config.deferred && config.front_end > 0 in
  let deferred_retry = if use_dfl then retry "deferred" else fun () -> () in
  let global_free_retry = if lockfree_global then retry "global-free" else fun () -> () in
  let mk_list name on_retry =
    Some (Deferred_list.create pf ~name ~lost_node:(config.mutant = "deferred-lost-node") ~on_retry ())
  in
  let mk_heap id =
    {
      core = Heap_core.create ~id ~classes ~ngroups:config.ngroups ~sb_size:config.sb_size ();
      lock = pf.Platform.new_lock (Printf.sprintf "hoard.heap%d" id);
      sh = Alloc_stats.shard stats id;
      ring = ring (if id = 0 then "global" else Printf.sprintf "heap%d" id);
      rq_lock = pf.Platform.new_lock (Printf.sprintf "hoard.rfq%d" id);
      rq_blocks = [];
      rq_len = 0;
      dfl =
        (* The deferred list is the front end's eviction channel; without
           a front end nothing would ever push, so it is not built. Under
           the lock-free index heap 0 has no list: its frees go to the
           freeing heap's shard below. *)
        (if use_dfl && not (id = 0 && lockfree_global) then
           mk_list (Printf.sprintf "hoard.dfl%d" id) deferred_retry
         else None);
      gfl =
        (* Named under heap 0's list, so per-layer accounting charges the
           shards to the global heap. *)
        (if lockfree_global && id > 0 then mk_list (Printf.sprintf "hoard.dfl0.%d" id) global_free_retry
         else None);
    }
  in
  let owner = Alloc_intf.next_owner () in
  let lcache =
    if config.large_cache > 0 then
      Some
        (Large_cache.create pf ~name:"hoard.lcache" ~cap:config.large_cache
           ~aba_tag:(config.mutant <> "large-cache-no-aba")
           ~on_retry:(retry "large-cache") ())
    else None
  in
  let t =
    {
      pf;
      cfg = config;
      classes;
      reg = Sb_registry.create pf ~sb_size:config.sb_size;
      stats;
      owner;
      global = mk_heap 0;
      heaps = Array.init n (fun i -> mk_heap (i + 1));
      large =
        Locked_large.create pf ~owner ~stats ~shard:(n + 1) ?ring:(ring "large") ?cache:lcache
          ~threshold:(Hoard_config.max_small config);
      lcache;
      reservoir =
        (if config.reservoir > 0 then
           Some (Sb_reservoir.create ~aba_tag ~on_retry:(retry "reservoir") pf ~cap:config.reservoir)
         else None);
      gindex =
        (if lockfree_global then
           Some
             (Global_index.create pf ~name:"hoard.gindex" ~nclasses:(Size_class.count classes)
                ~ngroups:config.ngroups
                ~aba_tag:(config.mutant <> "global-no-aba")
                ~skip_revalidate:(config.mutant = "global-skip-revalidate")
                ~on_retry:(retry "global") ())
         else None);
      obs;
      fe = config.front_end;
      rq_cap = config.remote_queue_cap;
      tcaches = Atomic.make IntMap.empty;
      tc_mu = Mutex.create ();
      creator_did = (Domain.self () :> int);
      san =
        (if config.sanitize then
           Some { q = Queue.create (); q_set = Hashtbl.create 64; q_cap = config.quarantine; q_mu = Mutex.create () }
         else None);
      trim_slack = (config.slack + if config.mutant = "emptiness-off-by-one" then 1 else 0);
      skip_owner_recheck = config.mutant = "skip-owner-recheck";
      park_before_decommit = config.mutant = "park-before-decommit";
      orphan_lost = config.mutant = "orphan-lost-superblock";
    }
  in
  (match obs with
   | Some o -> Alloc_stats.publish stats (Obs.metrics o)
   | None -> ());
  t

let config t = t.cfg

let nheaps t = Array.length t.heaps

let heap_by_id t id = if id = 0 then t.global else t.heaps.(id - 1)

(* Fibonacci hash so consecutive thread ids spread across heaps. *)
let hash_tid tid = (tid * 2654435761) land max_int

let my_heap t =
  let slot =
    if t.cfg.assign_by_tid then hash_tid (t.pf.Platform.self_tid ()) else t.pf.Platform.self_proc ()
  in
  t.heaps.(slot mod Array.length t.heaps)

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

let touch_header t sb = t.pf.Platform.write ~addr:(Superblock.base sb) ~len:16

(* Group a batch of blocks by superblock, in first-seen order; each
   group keeps its blocks in batch order. Every per-superblock effect of a
   batch — one header write, one block left for the free-list head, one
   Busy handshake — walks these groups. *)
let by_superblock items =
  List.fold_left
    (fun groups (sb, x) ->
      match List.assq_opt sb groups with
      | Some r ->
        r := x :: !r;
        groups
      | None -> (sb, ref [ x ]) :: groups)
    [] items
  |> List.rev_map (fun (sb, r) -> (sb, List.rev !r))

(* Write the header of each distinct superblock in a batch once, in
   first-seen order. A batch updates a header's free-list head and counts
   for every block it moves, but they all sit on one line: dirtying it once
   per superblock per batch is the cost, not once per block — and every
   simulated write inside a critical section is a point where co-located
   lock waiters run. *)
let touch_headers t items = List.iter (fun (sb, _) -> touch_header t sb) (by_superblock items)

(* Return one block the program already freed (it sat in a cache, a
   queue or a deferred list) to [h]'s core: host-side bookkeeping only.
   The caller holds [h]'s lock and issues the simulated writes — the 8 B
   free-list links and one header write per superblock — for the whole
   batch. *)
let free_owned h sb addr =
  Superblock.clear_cached sb addr;
  Heap_core.free h.core sb addr;
  Alloc_stats.on_drain h.sh ~usable:(Superblock.block_size sb)

(* A drain's private batch: the deferred chain and the bounded queue's
   contents, both taken BEFORE the heap lock by [detach]. *)
type detached = {
  chain : (Superblock.t * int) list; (* from the deferred list, most recent first *)
  queued : (Superblock.t * int) list; (* from the bounded queue, newest first *)
}

(* Pre-link a private batch, outside the heap lock: per superblock, the
   blocks after the first seen are linked to each other, one 8 B write
   each. Only the first block's link depends on the superblock's current
   free-list head, so [splice] writes it under the lock. The blocks are
   custody-marked and still charged to live bytes, so their superblock
   cannot empty, park or unmap underneath these writes; a superblock that
   migrates meanwhile is forwarded with its links, the writes wasted.
   The writes go in batch order, not grouped per superblock: their order
   is schedule-visible, and regrouping them changes the simulated cycles
   of every configuration that drains a batch. *)
let prelink t items =
  let rec go seen = function
    | [] -> ()
    | (sb, addr) :: rest ->
      if List.memq sb seen then begin
        t.pf.Platform.write ~addr ~len:8;
        go seen rest
      end
      else go (sb :: seen) rest
  in
  go [] items

(* The in-lock half of a pre-linked batch. Ownership is re-checked per
   block: [h]'s own blocks go back to its core, the others to
   [forward]. Then, per distinct superblock freed, in first-seen order,
   the tail-link write (the block [prelink] skipped now points at the
   free-list head) and one header write. Every block of a superblock
   gets the same verdict under [h]'s lock (migration away from [h] needs
   that lock), so the freed blocks form whole superblock groups and their
   first blocks are the ones left unlinked. Every simulated write inside
   a critical section is a point where co-located lock waiters run: the
   lock is held for O(superblocks) effects, not O(blocks). Caller holds
   [h]'s lock. Returns the number of blocks freed into [h]. *)
let splice t h items ~forward =
  let id = Heap_core.id h.core in
  let freed =
    List.filter
      (fun (sb, addr) ->
        let owner_id = Superblock.owner sb in
        if owner_id = id then begin
          free_owned h sb addr;
          true
        end
        else begin
          forward owner_id sb addr;
          false
        end)
      items
  in
  List.iter
    (fun (sb, addrs) ->
      t.pf.Platform.write ~addr:(List.hd addrs) ~len:8;
      touch_header t sb)
    (by_superblock freed);
  List.length freed

(* Record into [h]'s ring; the caller must hold [h]'s lock (the ring
   shares the stats shard's domain). Free when tracing is off. *)
let event t h kind ~sclass ~arg =
  match h.ring with
  | None -> ()
  | Some r ->
    Event_ring.record r ~at:(t.pf.Platform.now ()) ~kind ~who:(t.pf.Platform.self_proc ())
      ~heap:(Heap_core.id h.core) ~sclass ~arg

(* Record into the calling thread's cache ring (its own lock domain). *)
let event_tc t tc kind ~sclass ~arg =
  match tc.tc_ring with
  | None -> ()
  | Some r ->
    Event_ring.record r ~at:(t.pf.Platform.now ()) ~kind ~who:(t.pf.Platform.self_proc ())
      ~heap:(Heap_core.id (my_heap t).core) ~sclass ~arg

(* Dispose of one empty superblock the caller holds privately (already
   removed from its heap / the index, still registered). With a reservoir
   it is parked — unregistered, decommitted, still mapped — so a later
   refill pays a commit instead of an OS map; past the cap R (and always
   without one) it goes back to the OS. [h] is the lock domain whose ring
   records the disposal (the caller holds its lock); the reservoir lock
   is innermost. *)
let drop_empty_superblock t h sb =
  Sb_registry.unregister t.reg sb;
  let bytes = Superblock.sb_size sb in
  match t.reservoir with
  | Some res when t.park_before_decommit ->
    (* MUTANT: publish first, decommit after. A concurrent refill
       can take, recommit and start allocating from the superblock
       before our decommit lands — which then drops pages out from
       under live blocks: exactly the race the real path's
       decommit-before-park ordering forbids, for the schedule
       explorer to find. *)
    if Sb_reservoir.park res sb then begin
      t.pf.Platform.page_decommit ~addr:(Superblock.base sb);
      Alloc_stats.on_decommit t.stats ~bytes;
      Alloc_stats.on_park t.stats ~bytes;
      Alloc_stats.on_park_commit t.stats;
      event t h Event_ring.Decommit ~sclass:(Superblock.sclass sb) ~arg:bytes
    end
    else begin
      t.pf.Platform.page_unmap ~addr:(Superblock.base sb);
      Alloc_stats.on_unmap t.stats ~bytes;
      event t h Event_ring.Sb_unmap ~sclass:(Superblock.sclass sb) ~arg:bytes
    end
  | Some res ->
    (* Decommit and record stats while the superblock is still
       private: the moment [park] publishes it, a concurrent refill
       may take, recommit and reformat it, so a decommit (or a
       held/reservoir gauge update) after that point would race the
       taker — dropping pages under a live superblock. *)
    t.pf.Platform.page_decommit ~addr:(Superblock.base sb);
    Alloc_stats.on_decommit t.stats ~bytes;
    Alloc_stats.on_park t.stats ~bytes;
    event t h Event_ring.Decommit ~sclass:(Superblock.sclass sb) ~arg:bytes;
    if Sb_reservoir.park res sb then Alloc_stats.on_park_commit t.stats
    else begin
      (* Bounced on a full reservoir: the superblock is still ours
         and already decommitted — return it to the OS, as the
         no-reservoir path would have. *)
      t.pf.Platform.page_unmap ~addr:(Superblock.base sb);
      Alloc_stats.on_park_bounce t.stats ~bytes;
      event t h Event_ring.Sb_unmap ~sclass:(Superblock.sclass sb) ~arg:bytes
    end
  | None ->
    t.pf.Platform.page_unmap ~addr:(Superblock.base sb);
    Alloc_stats.on_unmap t.stats ~bytes;
    event t h Event_ring.Sb_unmap ~sclass:(Superblock.sclass sb) ~arg:bytes

(* Global heap, locked structure: drop surplus empty superblocks. Caller
   holds the global lock. *)
let release_surplus t =
  if t.cfg.release_to_os then
    while Heap_core.empty_superblock_count t.global.core > t.cfg.release_threshold do
      match Heap_core.pick_victim t.global.core ~max_fullness:0.0 with
      | None -> assert false (* the count said an empty superblock exists *)
      | Some sb -> drop_empty_superblock t t.global sb
    done

(* Global heap, lock-free index: surplus release by claiming empties off
   the index — each take is a CAS, no heap-0 lock. Bounded per call (the
   gauge may be momentarily stale and another releaser may be racing us;
   a later trim finishes the job), which also keeps the loop explorable.
   Caller holds [h]'s lock (for the disposal events). *)
let maybe_release_global t h gi =
  if t.cfg.release_to_os then begin
    let budget = ref 8 in
    while !budget > 0 && Global_index.empties gi > t.cfg.release_threshold do
      decr budget;
      match
        Global_index.take_empty gi ~record:(fun kind ~arg -> event t h kind ~sclass:(-1) ~arg)
      with
      | None -> budget := 0
      | Some sb ->
        Alloc_stats.on_global_pop t.stats;
        drop_empty_superblock t h sb
    done
  end

(* Transfer a privately-held superblock to the lock-free global heap: flip
   the owner while it is still unreachable, then one index publish — no
   heap-0 lock. Stats and events land on the calling heap's domain (the
   caller holds [h]'s lock); snapshot sums shards, so totals are
   unchanged. *)
let publish_global t h gi sb =
  let sclass = Superblock.sclass sb in
  Superblock.set_owner sb 0;
  touch_header t sb;
  Global_index.publish gi sb ~record:(fun kind ~arg -> event t h kind ~sclass ~arg);
  Alloc_stats.on_global_push t.stats;
  Alloc_stats.on_transfer_to_global h.sh;
  event t h Event_ring.Sb_to_global ~sclass ~arg:(Superblock.base sb)

(* Park blocks of owner-0 superblocks (lock-free global heap) on [h]'s
   shard of the global-free list: one CAS for the whole batch, no lock.
   [h] is the calling thread's heap, whose own refills and flushes
   complete the frees; a parker that finds the shard over
   [global_free_cap] completes it on the spot ([settle_global]). The
   blocks keep their custody marks until then. *)
let park_global h items =
  match h.gfl with
  | Some gfl -> Deferred_list.push_many gfl items
  | None -> assert false (* the lock-free index builds a shard per heap *)

(* Return a batch swapped off [h]'s bounded queue (by [detach], before
   the lock) to [h]'s core. A block whose superblock migrated since it
   was enqueued is forwarded to the current owner's queue — but
   boundedly: forwarding past the cap used to grow queues without limit
   (a drain could keep re-inflating its peers), so a forward is accepted
   only up to 2x the cap and counted; rejects land on [spill] for the
   caller to route through the classic locked path ([dispose_batch])
   AFTER releasing [h]'s lock — taking another heap's lock here would
   invert the lock order (the queue lock is innermost, so taking a
   peer's cannot deadlock). Caller holds [h]'s lock. Returns the number
   of blocks freed into [h]. *)
let drain_rq t h items ~spill =
  match items with
  | [] -> 0
  | _ ->
    let forwarded = ref 0 and to_global = ref [] in
    let forward owner_id sb addr =
      if owner_id = 0 && t.gindex <> None then begin
        (* Migrated to the lock-free global heap: park it on our own
           global-free shard — one CAS for the batch, never heap 0's
           lock or queue. *)
        to_global := (sb, addr) :: !to_global;
        incr forwarded;
        event t h Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr
      end
      else begin
        let h' = heap_by_id t owner_id in
        h'.rq_lock.acquire ();
        let accepted = h'.rq_len < 2 * t.rq_cap in
        if accepted then begin
          h'.rq_blocks <- (sb, addr) :: h'.rq_blocks;
          h'.rq_len <- h'.rq_len + 1
        end;
        h'.rq_lock.release ();
        if accepted then begin
          incr forwarded;
          event t h Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr
        end
        else spill := (sb, addr) :: !spill
      end
    in
    let mine = splice t h items ~forward in
    if !to_global <> [] then park_global h (List.rev !to_global);
    if !forwarded > 0 then Alloc_stats.on_remote_forward h.sh ~blocks:!forwarded;
    if mine > 0 then event t h Event_ring.Remote_drain ~sclass:0 ~arg:mine;
    mine

(* Owner side of both remote-free channels, first half, run WITHOUT [h]'s
   lock so co-located lock waiters never spin through it: one exchange
   takes [h]'s whole deferred list (plus the chain walk), one swap under
   the innermost queue lock takes its bounded queue, and [prelink] writes
   every link that does not depend on the free-list head. Threads sharing
   [h] detach disjoint batches; detached blocks keep their custody marks
   and stay charged to live bytes until the splice frees them. *)
let detach t h =
  let chain =
    match h.dfl with
    | None -> []
    | Some dfl -> Deferred_list.reclaim dfl
  in
  let queued =
    if h.rq_len = 0 then []
    else begin
      h.rq_lock.acquire ();
      let items = h.rq_blocks in
      h.rq_blocks <- [];
      h.rq_len <- 0;
      h.rq_lock.release ();
      items
    end
  in
  prelink t chain;
  prelink t queued;
  { chain; queued }

(* Owner side, second half: splice a detached chain into [h]'s core. A
   block whose superblock migrated since its push is re-pushed onto the
   CURRENT owner's list — one CAS; the list is unbounded, so unlike the
   bounded queues, forwarding can neither cascade nor spill into the
   locked path. Under the lock-free index the owner-0 blocks go to [h]'s
   own global-free shard, all with one CAS. Caller holds [h]'s lock. *)
let free_reclaimed t h items =
  match items with
  | [] -> 0
  | _ ->
    let forwarded = ref 0 and to_global = ref [] in
    let forward owner_id sb addr =
      (if owner_id = 0 && t.gindex <> None then to_global := (sb, addr) :: !to_global
       else
         match (heap_by_id t owner_id).dfl with
         | Some dfl' -> Deferred_list.push dfl' sb addr
         | None -> assert false (* deferred mode builds a list per heap *));
      incr forwarded;
      event t h Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr
    in
    let mine = splice t h items ~forward in
    if !to_global <> [] then park_global h (List.rev !to_global);
    if !forwarded > 0 then Alloc_stats.on_remote_forward h.sh ~blocks:!forwarded;
    Alloc_stats.on_deferred_reclaim h.sh;
    event t h Event_ring.Deferred_reclaim ~sclass:0 ~arg:mine;
    mine

(* Reclaim [h]'s global-free shard through the lock-free index: one
   exchange detaches it, then each superblock's run is freed with one Busy
   handshake, its link writes and single header write inside the Busy
   window — no heap-0 lock anywhere. Runs whose superblock was claimed
   away since the push are re-routed: to [spill] (the locked
   [dispose_batch], run by the caller after releasing [h]'s lock) when a
   heap owns it now, back onto the shard — all of them with one CAS — when
   it is still in transit or another reclaimer holds it Busy. Caller holds
   [h]'s lock — stats and events land there. *)
let reclaim_global_lockfree t h gi ~spill =
  match h.gfl with
  | None -> 0
  | Some gfl ->
    (match Deferred_list.reclaim gfl with
     | [] -> 0
     | items ->
       let mine = ref 0 and forwarded = ref 0 and back = ref [] in
       List.iter
         (fun (sb, addrs) ->
           (* Read the size before the free: once the run empties the
              superblock, another heap may claim it and reformat it for
              another class before the charge below. *)
           let usable = Superblock.block_size sb in
           let inside () =
             List.iter (fun addr -> t.pf.Platform.write ~addr ~len:8) addrs;
             touch_header t sb
           in
           match Global_index.free_run gi sb ~addrs ~inside with
           | Global_index.Freed { now_empty = _ } ->
             List.iter (fun _ -> Alloc_stats.on_drain h.sh ~usable) addrs;
             mine := !mine + List.length addrs
           | Global_index.Requeue | Global_index.Not_member { owner = 0 } ->
             (* Another reclaimer holds the superblock Busy, or a claim is
                in transit: hand the run back rather than spin against it. *)
             back := List.map (fun addr -> (sb, addr)) addrs @ !back
           | Global_index.Not_member { owner = _ } ->
             List.iter
               (fun addr ->
                 incr forwarded;
                 event t h Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr;
                 spill := (sb, addr) :: !spill)
               addrs)
         (by_superblock items);
       if !back <> [] then Deferred_list.push_many gfl !back;
       if !forwarded > 0 then Alloc_stats.on_remote_forward h.sh ~blocks:!forwarded;
       if !mine > 0 then begin
         Alloc_stats.on_deferred_reclaim h.sh;
         event t h Event_ring.Deferred_reclaim ~sclass:0 ~arg:!mine
       end;
       !mine)

(* The most blocks a global-free shard holds before the thread parking
   onto it completes the shard itself. A heap's refills and flushes are
   its shard's usual reclaimers, but a thread that only frees (the
   consumer of a producer/consumer pair) runs neither, and a heap can
   lose all its threads. Uncapped, their parked blocks stay bitmap-live
   and charged for good, every superblock a producer claims with them
   inside is partly unusable, and held memory grows with each trim and
   claim. Capped, at most this many blocks per heap await completion:
   O(P) in all. The cap is large enough that a thread retiring a whole
   wave of objects completes long per-superblock runs, not a handshake
   per block or two, on its own critical path. The length stands for a
   count carried in the head node (each push stores the previous count
   plus its chain's), so reading it costs nothing beyond the push's own
   CAS. *)
let global_free_cap = 1024

let shard_full h =
  match h.gfl with
  | Some gfl -> Deferred_list.length gfl > global_free_cap
  | None -> false

(* Complete [h]'s shard once it outgrows the cap. Caller holds [h]'s lock
   and disposes [spill] after releasing it. *)
let settle_global t h ~spill =
  match t.gindex with
  | Some gi when shard_full h ->
    ignore (reclaim_global_lockfree t h gi ~spill);
    maybe_release_global t h gi
  | _ -> ()

(* Return every pending remote free [detach]ed before the lock to [h]'s
   core: the deferred chain and the bounded queue's batch (one of them is
   empty outside a transition). Forwards may have filled [h]'s
   global-free shard past its cap. Caller holds [h]'s lock. *)
let drain_pending t h ~detached ~spill =
  let mine = free_reclaimed t h detached.chain + drain_rq t h detached.queued ~spill in
  settle_global t h ~spill;
  mine

(* Fetch a superblock usable for [sclass] from the global heap, the
   reservoir, or the OS, and insert it into [h] (whose lock the caller
   holds). *)
let refill t h ~sclass ~block_size ~spill =
  let from_global () =
    match t.gindex with
    | Some gi ->
      (* Pending frees may hand the index exactly the superblock we are
         about to ask for — and the reclaim is lock-free too. *)
      ignore (reclaim_global_lockfree t h gi ~spill);
      (match Global_index.acquire gi ~sclass ~record:(fun kind ~arg -> event t h kind ~sclass ~arg) with
       | None -> None
       | Some sb ->
         (* The claim CAS made the superblock private; a free racing the
            owner flip sees owner 0 + word Absent and parks the block on
            its heap's global-free shard, whose next reclaim forwards it
            to us. *)
         Superblock.set_owner sb (Heap_core.id h.core);
         Alloc_stats.on_global_pop t.stats;
         Some sb)
    | None ->
      (* Pending frees may hand the global heap exactly the superblock we
         are about to ask for. *)
      let detached = detach t t.global in
      t.global.lock.acquire ();
      ignore (drain_pending t t.global ~detached ~spill);
      let sb = Heap_core.take_for_class t.global.core ~sclass in
      (* Flip ownership before releasing the global lock: a concurrent free
         must either see the old owner (and retry against our heap lock,
         which we hold) or block here until the handoff is complete. *)
      (match sb with
       | Some sb -> Superblock.set_owner sb (Heap_core.id h.core)
       | None -> ());
      t.global.lock.release ();
      sb
  in
  let from_reservoir () =
    match t.reservoir with
    | None -> None
    | Some res ->
      (match Sb_reservoir.take res with
       | None -> None
       | Some sb ->
         (* Recommit-before-reuse: the parked superblock's pages were
            dropped; touching it without the commit is the lifecycle bug
            the sanitizer's residency check exists to catch. *)
         let base = Superblock.base sb in
         t.pf.Platform.page_commit ~addr:base;
         Superblock.reformat sb ~sclass ~block_size;
         Sb_registry.register t.reg sb;
         Alloc_stats.on_unpark t.stats ~bytes:t.cfg.sb_size;
         Alloc_stats.on_recommit t.stats ~bytes:t.cfg.sb_size;
         event t h Event_ring.Recommit ~sclass ~arg:t.cfg.sb_size;
         if t.san <> None && t.pf.Platform.page_residency ~addr:base <> Vmem.Resident then
           failwith "Hoard.refill: reservoir superblock reused without recommit";
         Some sb)
  in
  let sb =
    match from_global () with
    | Some sb ->
      if Superblock.is_empty sb && (Superblock.sclass sb <> sclass || Superblock.block_size sb <> block_size)
      then Superblock.reinit sb ~sclass ~block_size;
      Alloc_stats.on_transfer_from_global h.sh;
      event t h Event_ring.Sb_from_global ~sclass ~arg:(Superblock.base sb);
      sb
    | None ->
      (match from_reservoir () with
       | Some sb -> sb
       | None ->
         let base = t.pf.Platform.page_map ~bytes:t.cfg.sb_size ~align:t.cfg.sb_size ~owner:t.owner in
         let sb = Superblock.create ~base ~sb_size:t.cfg.sb_size ~sclass ~block_size in
         Sb_registry.register t.reg sb;
         Alloc_stats.on_map t.stats ~bytes:t.cfg.sb_size;
         event t h Event_ring.Sb_map ~sclass ~arg:t.cfg.sb_size;
         sb)
  in
  Heap_core.insert h.core sb;
  touch_header t sb

(* Lock the heap owning [sb], re-checking ownership after acquisition: the
   superblock may migrate to the global heap between the read and the lock
   (the paper's free protocol). Under the lock-free index an owner-0
   superblock has no lock to take — it returns [None] and the caller
   parks the block on its own heap's global-free shard instead. *)
let rec lock_owner t sb =
  let id = Superblock.owner sb in
  if id = 0 && t.gindex <> None then None
  else begin
    let h = heap_by_id t id in
    h.lock.acquire ();
    (* The skip-owner-recheck mutant returns without re-reading the owner:
       the superblock may have migrated to the global heap between the read
       above and the acquisition, and the caller then frees into the wrong
       heap — the bug the schedule explorer is expected to find. *)
    if t.skip_owner_recheck || Superblock.owner sb = Heap_core.id h.core then Some h
    else begin
      h.lock.release ();
      lock_owner t sb
    end
  end

(* The paper's post-free bookkeeping, factored so queue drains share it.
   Caller holds [h]'s lock. With [deep] (drains return many blocks at
   once), keep transferring until the invariant is restored; without it,
   move at most ONE at-least-f-empty superblock to the global heap — one
   is enough to restore the invariant when it held before the free (each
   free releases at most one block); heaps that malloc drove far below the
   threshold converge back over subsequent frees instead of exiling their
   superblocks all at once. *)
let trim_heap ?(deep = false) t h ~sclass =
  if Heap_core.id h.core = 0 then release_surplus t (* the held lock IS the global lock *)
  else begin
    let continue_ = ref true in
    while !continue_ && too_empty ~slack:t.trim_slack t h.core do
      event t h Event_ring.Emptiness_cross ~sclass ~arg:(Heap_core.u h.core);
      (match Heap_core.pick_victim ~protect_last:true h.core ~max_fullness:(1.0 -. t.cfg.empty_fraction) with
       | None -> continue_ := false
       | Some victim ->
         (match t.gindex with
          | Some gi ->
            (* The non-blocking transfer: one index publish, any
               fullness, never heap 0's lock. *)
            publish_global t h gi victim;
            maybe_release_global t h gi
          | None ->
            t.global.lock.acquire ();
            Heap_core.insert t.global.core victim;
            touch_header t victim;
            Alloc_stats.on_transfer_to_global t.global.sh;
            event t t.global Event_ring.Sb_to_global ~sclass:(Superblock.sclass victim)
              ~arg:(Superblock.base victim);
            release_surplus t;
            t.global.lock.release ()));
      if not deep then continue_ := false
    done
  end

(* [settle_global] for a caller holding no lock: returns the spill for
   the caller to dispose. *)
let settle_global_unlocked t h =
  if not (shard_full h) then []
  else begin
    let spill = ref [] in
    h.lock.acquire ();
    settle_global t h ~spill;
    h.lock.release ();
    !spill
  end

(* Classic locked disposal of blocks already counted as freed (they sat
   in a cache or overflowed a queue), batched: one heap-lock acquisition
   covers every block with the same current owner; blocks that migrate
   mid-round are retried next round. The first block's owner is pinned by
   [lock_owner], so every round frees at least one block. *)
let rec dispose_batch t pairs =
  (* Under the lock-free index, owner-0 blocks have no heap to lock:
     they go to the calling heap's global-free shard in one pre-linked
     CAS (custody marks stay on until the reclaim clears them). *)
  let pairs =
    match t.gindex with
    | Some _ ->
      let global, rest = List.partition (fun (sb, _) -> Superblock.owner sb = 0) pairs in
      if global <> [] then begin
        let h = my_heap t in
        park_global h global;
        List.rev_append (settle_global_unlocked t h) rest
      end
      else rest
    | None -> pairs
  in
  match pairs with
  | [] -> ()
  | (sb0, _) :: _ ->
    (match lock_owner t sb0 with
     | None -> dispose_batch t pairs (* migrated to owner 0 since the partition: redo it *)
     | Some h ->
       let id = Heap_core.id h.core in
       let later = ref [] and freed_into = ref [] in
       List.iter
         (fun (sb, addr) ->
           if Superblock.owner sb = id then begin
             t.pf.Platform.write ~addr ~len:8;
             free_owned h sb addr;
             freed_into := (sb, addr) :: !freed_into
           end
           else later := (sb, addr) :: !later)
         pairs;
       touch_headers t (List.rev !freed_into);
       if !freed_into <> [] then trim_heap ~deep:true t h ~sclass:(Superblock.sclass sb0);
       h.lock.release ();
       dispose_batch t !later)

(* Route cache-evicted blocks out. Under the lock-free index, owner-0
   blocks park on the calling heap's global-free shard in one pre-linked
   CAS. Deferred mode: partition by the owner observed now and publish
   each group as one pre-linked chain — a single CAS per owner heap
   instead of one per block, no queue lock, no cap, no locked fallback; a
   block whose superblock migrates between the owner read and the push
   just lands on the stale owner's list, whose reclaim forwards it. Queue
   mode: partition by owner, push each group onto its owner's remote-free
   queue in one innermost-lock critical section, and hand whatever the
   caps reject to the classic locked path in one batch. Each block's
   owner must be read ONCE: on real domains a concurrent transfer can
   change it between two reads, and consing onto one owner's group while
   storing under the other's index copies a whole group — every block in
   it queued twice, a double free at the second drain. *)
let surrender_many t tc pairs =
  let groups = Array.make (Array.length t.heaps + 1) [] in
  List.iter
    (fun (addr, sb) ->
      let id = Superblock.owner sb in
      groups.(id) <- (sb, addr) :: groups.(id))
    pairs;
  let enqueued group =
    List.iter
      (fun (sb, addr) ->
        Alloc_stats.on_deferred_enqueue tc.tc_sh;
        event_tc t tc Event_ring.Deferred_enqueue ~sclass:(Superblock.sclass sb) ~arg:addr)
      group
  in
  let settled =
    if t.gindex <> None && groups.(0) <> [] then begin
      let h = my_heap t in
      park_global h groups.(0);
      enqueued groups.(0);
      groups.(0) <- [];
      settle_global_unlocked t h
    end
    else []
  in
  if t.cfg.deferred then begin
    Array.iteri
      (fun id group ->
        match group with
        | [] -> ()
        | _ ->
          (match (heap_by_id t id).dfl with
           | Some dfl -> Deferred_list.push_many dfl group
           | None -> assert false (* deferred mode builds a list per heap *));
          enqueued group)
      groups;
    if settled <> [] then dispose_batch t settled
  end
  else begin
    let overflow = ref [] in
    Array.iteri
      (fun id group ->
        match group with
        | [] -> ()
        | (sb0, _) :: _ ->
          let h = heap_by_id t id in
          h.rq_lock.acquire ();
          let accepted = ref 0 in
          let room = ref (t.rq_cap - h.rq_len) in
          List.iter
            (fun (sb, addr) ->
              if !room > 0 then begin
                decr room;
                h.rq_blocks <- (sb, addr) :: h.rq_blocks;
                h.rq_len <- h.rq_len + 1;
                incr accepted
              end
              else overflow := (sb, addr) :: !overflow)
            group;
          h.rq_lock.release ();
          if !accepted > 0 then begin
            Alloc_stats.on_remote_enqueue tc.tc_sh ~blocks:!accepted;
            event_tc t tc Event_ring.Remote_enqueue ~sclass:(Superblock.sclass sb0) ~arg:!accepted
          end)
      groups;
    dispose_batch t (List.rev_append settled !overflow)
  end

(* Evict the oldest half of an overflowing class so the next [fe/2] frees
   stay lock-free. *)
let flush_class t tc ~sclass =
  let keep = t.fe / 2 in
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: tl -> split (n - 1) (x :: acc) tl
  in
  let kept, excess = split keep [] tc.tc_slots.(sclass) in
  let n_excess = tc.tc_count.(sclass) - keep in
  tc.tc_slots.(sclass) <- kept;
  tc.tc_count.(sclass) <- keep;
  Alloc_stats.on_cache_flush tc.tc_sh ~blocks:n_excess;
  event_tc t tc Event_ring.Cache_flush ~sclass ~arg:n_excess;
  surrender_many t tc excess

(* Empty the calling thread's cache entirely (thread exit, explicit
   flush). *)
let flush_tcache t tc =
  let all = ref [] in
  Array.iteri
    (fun sclass stack ->
      match stack with
      | [] -> ()
      | _ ->
        Alloc_stats.on_cache_flush tc.tc_sh ~blocks:tc.tc_count.(sclass);
        event_tc t tc Event_ring.Cache_flush ~sclass ~arg:tc.tc_count.(sclass);
        tc.tc_slots.(sclass) <- [];
        tc.tc_count.(sclass) <- 0;
        all := List.rev_append stack !all)
    tc.tc_slots;
  if !all <> [] then surrender_many t tc !all

let new_tcache t tid =
  Mutex.lock t.tc_mu;
  let tc =
    match IntMap.find_opt tid (Atomic.get t.tcaches) with
    | Some tc -> tc
    | None ->
      let ring =
        match t.obs with
        | None -> None
        | Some o ->
          let name = Printf.sprintf "tcache%d" tid in
          (* Thread ids can be recycled across sequential domains; the
             successor inherits the name's ring. *)
          (match Obs.find_ring o name with
           | Some r -> Some r
           | None -> Some (Obs.new_ring o name))
      in
      let tc =
        {
          tc_slots = Array.make (Size_class.count t.classes) [];
          tc_count = Array.make (Size_class.count t.classes) 0;
          tc_sh = Alloc_stats.add_shard t.stats;
          tc_ring = ring;
          tc_domain = (Domain.self () :> int);
        }
      in
      Atomic.set t.tcaches (IntMap.add tid tc (Atomic.get t.tcaches));
      (* Real worker domains flush their cache when they exit, so nothing
         leaks into a dead thread. Simulated threads share the creator
         domain and are flushed by [flush_caches] at quiescence instead. *)
      if tc.tc_domain <> t.creator_did then Domain.at_exit (fun () -> flush_tcache t tc);
      tc
  in
  Mutex.unlock t.tc_mu;
  tc

(* [Domain.at_exit] hooks belong to the registering domain, so a cache
   surviving its domain (recycled thread id: domain A exits, domain B is
   assigned the same tid) must re-arm the exit flush ON the adopting
   domain — registering only at creation silently dropped every later
   domain's flush, leaking its cached blocks. *)
let adopt_tcache t tc =
  let did = (Domain.self () :> int) in
  if tc.tc_domain <> did then begin
    Mutex.lock t.tc_mu;
    if tc.tc_domain <> did then begin
      tc.tc_domain <- did;
      if did <> t.creator_did then Domain.at_exit (fun () -> flush_tcache t tc)
    end;
    Mutex.unlock t.tc_mu
  end

let tcache t =
  let tid = t.pf.Platform.self_tid () in
  match IntMap.find_opt tid (Atomic.get t.tcaches) with
  | Some tc ->
    adopt_tcache t tc;
    tc
  | None -> new_tcache t tid

(* The slow half of a front-end malloc: the deferred list is detached
   first, then one lock acquisition frees it, drains the bounded queue and
   pulls [fe/2 + 1] blocks — one to return, the rest into the cache. *)
let malloc_fill t tc ~size ~sclass ~block_size =
  let h = my_heap t in
  let spill = ref [] in
  let detached = detach t h in
  h.lock.acquire ();
  let drained = drain_pending t h ~detached ~spill in
  let want = (t.fe / 2) + 1 in
  let blocks = ref [] and got = ref 0 in
  while !got < want do
    match Heap_core.malloc_batch h.core ~sclass ~block_size ~n:(want - !got) with
    | [] -> refill t h ~sclass ~block_size ~spill
    | batch ->
      blocks := List.rev_append batch !blocks;
      got := !got + List.length batch
  done;
  touch_headers t (List.rev_map (fun (addr, sb) -> (sb, addr)) !blocks);
  let addr =
    match !blocks with
    | [] -> assert false (* want >= 1 *)
    | (addr, _) :: cached ->
      Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size;
      let n_cached = List.length cached in
      if n_cached > 0 then begin
        (* Fill surplus enters front-end custody: mark it, so a wild free
           of a cached address is caught as a double free, not recycled. *)
        List.iter
          (fun (a, sb) ->
            Superblock.mark_cached sb a;
            tc.tc_slots.(sclass) <- (a, sb) :: tc.tc_slots.(sclass))
          cached;
        tc.tc_count.(sclass) <- tc.tc_count.(sclass) + n_cached;
        Alloc_stats.on_cache_fill h.sh ~blocks:n_cached ~bytes:(n_cached * block_size)
      end;
      addr
  in
  if drained > 0 then trim_heap ~deep:true t h ~sclass;
  t.pf.Platform.write ~addr ~len:8;
  h.lock.release ();
  (* Spilled forwards (a drain met an over-full peer queue) take the
     locked path only now, with no heap lock held. *)
  if !spill <> [] then dispose_batch t !spill;
  addr

let malloc t size =
  if size <= 0 then invalid_arg "Hoard.malloc: size must be positive";
  t.pf.Platform.work t.cfg.path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    if t.fe > 0 then begin
      let tc = tcache t in
      match tc.tc_slots.(sclass) with
      | (addr, sb) :: rest ->
        tc.tc_slots.(sclass) <- rest;
        tc.tc_count.(sclass) <- tc.tc_count.(sclass) - 1;
        (* Custody ends: the block is the program's again, and a free of
           it must be accepted. *)
        Superblock.clear_cached sb addr;
        Alloc_stats.on_cache_hit tc.tc_sh ~requested:size;
        event_tc t tc Event_ring.Cache_hit ~sclass ~arg:addr;
        t.pf.Platform.write ~addr ~len:8;
        addr
      | [] -> malloc_fill t tc ~size ~sclass ~block_size
    end
    else begin
      let h = my_heap t in
      let spill = ref [] in
      h.lock.acquire ();
      let addr =
        match Heap_core.malloc h.core ~sclass ~block_size with
        | Some (addr, sb) ->
          touch_header t sb;
          addr
        | None ->
          refill t h ~sclass ~block_size ~spill;
          (match Heap_core.malloc h.core ~sclass ~block_size with
           | Some (addr, sb) ->
             touch_header t sb;
             addr
           | None -> assert false (* refill installed an allocatable superblock *))
      in
      Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size;
      (* The allocator links free blocks through their first word. *)
      t.pf.Platform.write ~addr ~len:8;
      h.lock.release ();
      if !spill <> [] then dispose_batch t !spill;
      addr
    end
  end

(* Batched allocation: one heap-lock acquisition for the whole request,
   regardless of the front-end setting. *)
let malloc_many t n size =
  if n <= 0 then [||]
  else if size <= 0 then invalid_arg "Hoard.malloc: size must be positive"
  else begin
    t.pf.Platform.work t.cfg.path_work;
    if Locked_large.is_large t.large size then Array.init n (fun _ -> Locked_large.malloc t.large size)
    else begin
      let sclass = Size_class.class_of_size t.classes size in
      let block_size = Size_class.size_of_class t.classes sclass in
      let h = my_heap t in
      let spill = ref [] in
      let detached = detach t h in
      h.lock.acquire ();
      ignore (drain_pending t h ~detached ~spill);
      let out = Array.make n 0 and got = ref 0 and from = ref [] in
      while !got < n do
        match Heap_core.malloc_batch h.core ~sclass ~block_size ~n:(n - !got) with
        | [] -> refill t h ~sclass ~block_size ~spill
        | batch ->
          List.iter
            (fun (addr, sb) ->
              out.(!got) <- addr;
              Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size;
              t.pf.Platform.write ~addr ~len:8;
              from := (sb, addr) :: !from;
              incr got)
            batch
      done;
      touch_headers t (List.rev !from);
      h.lock.release ();
      if !spill <> [] then dispose_batch t !spill;
      out
    end
  end

let free_now t addr =
  t.pf.Platform.work t.cfg.path_work;
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if t.fe > 0 then begin
      let tc = tcache t in
      let sclass = Superblock.sclass sb in
      (* A block absorbed by ANY thread's cache (or parked on a remote
         queue) stays bitmap-live, so liveness alone cannot catch a second
         free — and scanning only the caller's own cache missed the
         cross-thread case entirely. The superblock's custody bit is the
         shared O(1) record of "freed but still cached", whoever holds
         it. *)
      if (not (Superblock.is_block_live sb addr)) || Superblock.is_block_cached sb addr then
        failwith "Hoard.free: double free (cached)";
      if tc.tc_count.(sclass) >= t.fe then flush_class t tc ~sclass;
      Superblock.mark_cached sb addr;
      tc.tc_slots.(sclass) <- (addr, sb) :: tc.tc_slots.(sclass);
      tc.tc_count.(sclass) <- tc.tc_count.(sclass) + 1;
      Alloc_stats.on_cached_free tc.tc_sh;
      t.pf.Platform.write ~addr ~len:8
    end
    else begin
      match lock_owner t sb with
      | Some h ->
        let my = my_heap t in
        if h != my && h != t.global then begin
          Alloc_stats.on_remote_free h.sh;
          event t h Event_ring.Remote_free ~sclass:(Superblock.sclass sb) ~arg:addr
        end;
        t.pf.Platform.write ~addr ~len:8;
        Heap_core.free h.core sb addr;
        touch_header t sb;
        Alloc_stats.on_free h.sh ~usable:(Superblock.block_size sb);
        trim_heap t h ~sclass:(Superblock.sclass sb);
        h.lock.release ()
      | None ->
        (* The superblock lives in the lock-free global heap: park the
           block on MY heap's global-free shard (one CAS; my heap's next
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
        park_global h [ (sb, addr) ];
        Alloc_stats.on_cached_free h.sh;
        Alloc_stats.on_deferred_enqueue h.sh;
        event t h Event_ring.Deferred_enqueue ~sclass:(Superblock.sclass sb) ~arg:addr;
        settle_global t h ~spill;
        h.lock.release ();
        if !spill <> [] then dispose_batch t !spill
    end
  | None -> if not (Locked_large.try_free t.large ~addr) then invalid_arg "Hoard.free: foreign pointer"

(* Whether the sanitizer currently quarantines this block address. *)
let quarantined t addr =
  match t.san with
  | None -> false
  | Some s ->
    Mutex.lock s.q_mu;
    let r = Hashtbl.mem s.q_set addr in
    Mutex.unlock s.q_mu;
    r

(* Build and raise the sanitizer diagnostic: what happened, where, the
   owning superblock/heap, and that heap's most recent event-ring entries
   (when tracing is on) as the last-op trace. Terminal, so the unlocked
   ring read is fine. *)
let san_report t ~what ~addr sb =
  let b = Buffer.create 128 in
  Printf.bprintf b "heap sanitizer: %s at 0x%x" what addr;
  (match sb with
   | None -> ()
   | Some sb ->
     Printf.bprintf b " (superblock 0x%x class=%d block=%dB owner=heap%d)" (Superblock.base sb)
       (Superblock.sclass sb) (Superblock.block_size sb) (Superblock.owner sb);
     let owner_id = Superblock.owner sb in
     if owner_id >= 0 && owner_id <= Array.length t.heaps then begin
       match (heap_by_id t owner_id).ring with
       | None -> ()
       | Some r ->
         let evs = Event_ring.to_list r in
         let n = List.length evs in
         let evs = if n > 6 then List.filteri (fun i _ -> i >= n - 6) evs else evs in
         if evs <> [] then begin
           Printf.bprintf b "; last heap events:";
           List.iter
             (fun (e : Event_ring.event) ->
               Printf.bprintf b " [%s at=%d proc=%d class=%d arg=%d]" (Event_ring.kind_name e.kind) e.at
                 e.who e.sclass e.arg)
             evs
         end
     end);
  raise (Sanitizer_violation (Buffer.contents b))

(* Sanitizing free: validate the pointer (double free, interior, header,
   foreign), poison the block, and push it through the quarantine ring.
   The evicted oldest block takes the real free path; until then the
   block stays bitmap-live, so stats' free counters lag the program's
   frees by at most [quarantine] until a flush. *)
let free t addr =
  match t.san with
  | None -> free_now t addr
  | Some s ->
    t.pf.Platform.work t.cfg.path_work;
    (match Sb_registry.lookup t.reg ~addr with
     | None ->
       if not (Locked_large.try_free t.large ~addr) then san_report t ~what:"free of foreign pointer" ~addr None
     | Some sb ->
       if quarantined t addr then san_report t ~what:"double free (block still in quarantine)" ~addr (Some sb);
       (match Superblock.locate sb addr with
        | Superblock.Header -> san_report t ~what:"free of a superblock header address" ~addr (Some sb)
        | Superblock.Tail_waste -> san_report t ~what:"free of a tail-waste address" ~addr (Some sb)
        | Superblock.Block { b_start; b_live; _ } ->
          if b_start <> addr then san_report t ~what:"free of an interior pointer" ~addr (Some sb);
          if not b_live then san_report t ~what:"double free" ~addr (Some sb));
       (* Poison-on-free: scribble the whole block, so the cost (and the
          coherence traffic) of poisoning is modelled. *)
       t.pf.Platform.write ~addr ~len:(Superblock.block_size sb);
       Mutex.lock s.q_mu;
       Queue.push addr s.q;
       Hashtbl.replace s.q_set addr ();
       let evicted =
         if Queue.length s.q > s.q_cap then begin
           let a = Queue.pop s.q in
           Hashtbl.remove s.q_set a;
           Some a
         end
         else None
       in
       Mutex.unlock s.q_mu;
       (match evicted with
        | Some a -> free_now t a
        | None -> ()))

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if quarantined t addr then san_report t ~what:"usable_size of a freed (quarantined) block" ~addr (Some sb);
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else if t.san <> None then san_report t ~what:"usable_size of a dead block" ~addr (Some sb)
    else invalid_arg "Hoard.usable_size: dead block"
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Hoard.usable_size: foreign pointer")

(* In-place whenever the block's superblock already carves pieces big
   enough; a single registry lookup replaces the generic path's
   usable_size round trip. Growth falls back to allocate-copy-free
   through the front end. *)
let realloc t ~addr ~size =
  if size <= 0 then invalid_arg "Alloc_api.realloc: size must be positive";
  (match Sb_registry.lookup t.reg ~addr with
   | Some sb when quarantined t addr -> san_report t ~what:"realloc of a freed (quarantined) block" ~addr (Some sb)
   | _ -> ());
  match Sb_registry.lookup t.reg ~addr with
  | Some sb when Superblock.is_block_live sb addr && size <= Superblock.block_size sb -> addr
  | _ ->
    let old_usable = usable_size t addr in
    if size <= old_usable then addr
    else begin
      let fresh = malloc t size in
      let copied = min old_usable size in
      t.pf.Platform.read ~addr ~len:copied;
      t.pf.Platform.write ~addr:fresh ~len:copied;
      free t addr;
      fresh
    end

(* Empty the quarantine from inside a simulated thread: every deferred
   free takes the real free path now, with its usual costs. *)
let drain_quarantine t =
  match t.san with
  | None -> ()
  | Some s ->
    Mutex.lock s.q_mu;
    let items = List.rev (Queue.fold (fun acc a -> a :: acc) [] s.q) in
    Queue.clear s.q;
    Hashtbl.reset s.q_set;
    Mutex.unlock s.q_mu;
    List.iter (fun a -> free_now t a) items

let quarantine_length t =
  match t.san with
  | None -> 0
  | Some s ->
    Mutex.lock s.q_mu;
    let n = Queue.length s.q in
    Mutex.unlock s.q_mu;
    n

(* In-thread flush: cache out to the owners' queues, then drain and trim
   the calling thread's own heap, plus (under the lock-free index) its
   global-free shard — all without the heap-0 lock. *)
let flush t =
  drain_quarantine t;
  (if t.fe > 0 then
     match IntMap.find_opt (t.pf.Platform.self_tid ()) (Atomic.get t.tcaches) with
     | Some tc -> flush_tcache t tc
     | None -> ());
  if t.fe > 0 || t.gindex <> None then begin
    let h = my_heap t in
    let spill = ref [] in
    let detached = detach t h in
    h.lock.acquire ();
    if drain_pending t h ~detached ~spill > 0 then trim_heap ~deep:true t h ~sclass:0;
    (match t.gindex with
     | Some gi ->
       ignore (reclaim_global_lockfree t h gi ~spill);
       maybe_release_global t h gi
     | None -> ());
    h.lock.release ();
    if !spill <> [] then dispose_batch t !spill
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
  drain_quarantine t;
  let tid = t.pf.Platform.self_tid () in
  if t.fe > 0 then begin
    match IntMap.find_opt tid (Atomic.get t.tcaches) with
    | Some tc ->
      flush_tcache t tc;
      Mutex.lock t.tc_mu;
      Atomic.set t.tcaches (IntMap.remove tid (Atomic.get t.tcaches));
      Mutex.unlock t.tc_mu
    | None -> ()
  end;
  let h = my_heap t in
  let spill = ref [] in
  let detached = detach t h in
  h.lock.acquire ();
  ignore (drain_pending t h ~detached ~spill);
  let orphans = ref [] in
  Heap_core.iter h.core (fun sb -> orphans := sb :: !orphans);
  List.iter
    (fun sb ->
      Heap_core.remove h.core sb;
      Alloc_stats.on_orphan_adopt h.sh;
      event t h Event_ring.Orphan_adopt ~sclass:(Superblock.sclass sb) ~arg:(Superblock.base sb))
    !orphans;
  (if t.orphan_lost then
     (* MUTANT: the superblocks were unhooked from the exiting heap but
        never inserted into the global heap — their blocks (and their held
        bytes) leak out of every heap's accounting, which [check]'s
        live-bytes conservation reports and the schedule explorer is
        expected to find. *)
     List.iter
       (fun sb ->
         Superblock.set_owner sb 0;
         touch_header t sb)
       !orphans
   else
     match t.gindex with
     | Some gi ->
       (* Lock-free adoption: one index publish per superblock; the whole
          exit path completes without ever touching the heap-0 lock. *)
       List.iter (fun sb -> publish_global t h gi sb) !orphans;
       if !orphans <> [] then maybe_release_global t h gi
     | None ->
       (* Batched locked adoption: ONE heap-0 critical section covers the
          whole orphan batch — insert everything, then a single surplus
          sweep — instead of an acquire/release per superblock. *)
       if !orphans <> [] then begin
         t.global.lock.acquire ();
         List.iter
           (fun sb ->
             Heap_core.insert t.global.core sb;
             touch_header t sb;
             Alloc_stats.on_transfer_to_global t.global.sh;
             event t t.global Event_ring.Sb_to_global ~sclass:(Superblock.sclass sb)
               ~arg:(Superblock.base sb))
           !orphans;
         release_surplus t;
         t.global.lock.release ()
       end);
  h.lock.release ();
  if !spill <> [] then dispose_batch t !spill

(* Quiescent-only: returns every cached and queued block straight to the
   heap cores WITHOUT platform locks, costs or events (on the simulated
   platform those are effects, usable only inside simulated threads).
   Afterwards live bytes equal program-held bytes exactly, and the
   emptiness invariant is re-established; surplus empty superblocks stay
   mapped (releasing them would charge platform unmaps). *)
let flush_caches t =
  let dispose (sb, addr) =
    Superblock.clear_cached sb addr;
    match (t.gindex, Superblock.owner sb) with
    | Some gi, 0 ->
      (* Lock-free mode: heap 0's core is empty, the member lives in the
         index — complete the free through its quiescent path. *)
      Global_index.q_free gi sb ~addr;
      Alloc_stats.on_drain t.global.sh ~usable:(Superblock.block_size sb)
    | _ ->
      let h = heap_by_id t (Superblock.owner sb) in
      Heap_core.free h.core sb addr;
      Alloc_stats.on_drain h.sh ~usable:(Superblock.block_size sb)
  in
  (* Quarantined blocks first: the program already freed them, so complete
     those frees (counting them as frees, not drains) before rebalancing. *)
  (match t.san with
   | None -> ()
   | Some s ->
     Mutex.lock s.q_mu;
     let items = List.rev (Queue.fold (fun acc a -> a :: acc) [] s.q) in
     Queue.clear s.q;
     Hashtbl.reset s.q_set;
     Mutex.unlock s.q_mu;
     List.iter
       (fun addr ->
         match Sb_registry.lookup t.reg ~addr with
         | None -> assert false
         | Some sb -> (
           match (t.gindex, Superblock.owner sb) with
           | Some gi, 0 ->
             Global_index.q_free gi sb ~addr;
             Alloc_stats.on_free t.global.sh ~usable:(Superblock.block_size sb)
           | _ ->
             let h = heap_by_id t (Superblock.owner sb) in
             Heap_core.free h.core sb addr;
             Alloc_stats.on_free h.sh ~usable:(Superblock.block_size sb)))
       items);
  IntMap.iter
    (fun _ tc ->
      Array.iteri
        (fun sclass stack ->
          match stack with
          | [] -> ()
          | _ ->
            Alloc_stats.on_cache_flush tc.tc_sh ~blocks:tc.tc_count.(sclass);
            tc.tc_slots.(sclass) <- [];
            tc.tc_count.(sclass) <- 0;
            List.iter (fun (addr, sb) -> dispose (sb, addr)) stack)
        tc.tc_slots)
    (Atomic.get t.tcaches);
  let take h =
    let items = h.rq_blocks in
    h.rq_blocks <- [];
    h.rq_len <- 0;
    (* The quiescent drain uses charge-free peek/poke, so it is as cost-
       and schedule-invisible as the queue grab above. *)
    List.fold_left
      (fun acc -> function
        | None -> acc
        | Some l -> List.rev_append (Deferred_list.drain_quiescent l) acc)
      items [ h.dfl; h.gfl ]
  in
  (* At quiescence owners are stable, so one pass routes every queued
     block to its final heap. *)
  List.iter dispose (take t.global);
  Array.iter (fun h -> List.iter dispose (take h)) t.heaps;
  Array.iter
    (fun h ->
      let continue_ = ref true in
      while !continue_ && too_empty t h.core do
        match Heap_core.pick_victim ~protect_last:true h.core ~max_fullness:(1.0 -. t.cfg.empty_fraction) with
        | None -> continue_ := false
        | Some victim -> (
          match t.gindex with
          | Some gi ->
            Superblock.set_owner victim 0;
            Global_index.q_publish gi victim;
            Alloc_stats.on_transfer_to_global t.global.sh
          | None ->
            Heap_core.insert t.global.core victim;
            Alloc_stats.on_transfer_to_global t.global.sh)
      done)
    t.heaps

(* The checker a test harness installs on the *workload's* view of the
   platform (the allocator itself keeps the raw platform: it legitimately
   writes headers and free-list links). Unknown addresses are ignored —
   large objects and workload scratch space live outside superblocks. *)
let sanitizer_access_check t =
  match t.san with
  | None -> None
  | Some _ ->
    Some
      (fun ~addr ~len ~write ->
        (* A parked superblock is unregistered, so the block-level checks
           below can't see it — but its pages are decommitted, and any
           touch means a stale pointer outlived the park (or a reuse path
           skipped the recommit). The residency probe is charge-free. *)
        if t.reservoir <> None && t.pf.Platform.page_residency ~addr = Vmem.Decommitted then
          san_report t
            ~what:
              (if write then "write to a decommitted page (parked superblock)"
               else "read of a decommitted page (parked superblock)")
            ~addr None;
        match Sb_registry.lookup t.reg ~addr with
        | None -> ()
        | Some sb ->
          (match Superblock.locate sb addr with
           | Superblock.Header ->
             san_report t
               ~what:
                 (if write then "header canary clobbered (write into a superblock header)"
                  else "read of a superblock header")
               ~addr (Some sb)
           | Superblock.Tail_waste -> san_report t ~what:"access to superblock tail waste" ~addr (Some sb)
           | Superblock.Block { b_start; b_live; _ } ->
             if (not b_live) || quarantined t b_start then
               san_report t
                 ~what:(if write then "use-after-free write to a poisoned block" else "use-after-free read of a poisoned block")
                 ~addr (Some sb)
             else if addr + len > b_start + Superblock.block_size sb then
               san_report t ~what:"buffer overflow past the end of a block" ~addr (Some sb)))

let obs t = t.obs

let size_classes t = t.classes

(* Lock-free reads, like [pp_heaps]: call at quiescence (after the run, or
   from outside any simulated thread — heap locks perform effects). *)
let fullness_profile t =
  let profile h =
    let label = if Heap_core.id h.core = 0 then "global" else Printf.sprintf "heap%d" (Heap_core.id h.core) in
    (label, Heap_core.class_profile h.core)
  in
  Array.append [| profile t.global |] (Array.map profile t.heaps)

let heap_info t id =
  match (id, t.gindex) with
  | 0, Some gi ->
    (* Lock-free mode: heap 0's holdings live in the index, not the core. *)
    let members = Global_index.members gi in
    {
      heap_id = 0;
      u_bytes = Global_index.u_bytes gi;
      a_bytes = members * t.cfg.sb_size;
      superblocks = members;
      empty_superblocks = Global_index.empties gi;
    }
  | _ ->
    let h = heap_by_id t id in
    {
      heap_id = id;
      u_bytes = Heap_core.u h.core;
      a_bytes = Heap_core.a h.core;
      superblocks = Heap_core.superblock_count h.core;
      empty_superblocks = Heap_core.empty_superblock_count h.core;
    }

let cache_counts t =
  List.rev (IntMap.fold (fun tid tc acc -> (tid, Array.copy tc.tc_count) :: acc) (Atomic.get t.tcaches) [])

let list_length = function
  | None -> 0
  | Some l -> Deferred_list.length l

(* Blocks on each heap's deferred list; heap 0's entry also sums the
   global-free shards (empty outside the lock-free index), whose blocks
   all wait on global superblocks. *)
let deferred_lengths t =
  Array.init
    (Array.length t.heaps + 1)
    (fun id ->
      let own = list_length (heap_by_id t id).dfl in
      if id = 0 then Array.fold_left (fun acc h -> acc + list_length h.gfl) own t.heaps else own)

let iter_global_free t f =
  Array.iter
    (fun h ->
      match h.gfl with
      | None -> ()
      | Some l -> Deferred_list.iter l (fun sb addr -> f ~heap:(Heap_core.id h.core) sb addr))
    t.heaps

let remote_queue_lengths t =
  Array.mapi (fun id n -> n + (heap_by_id t id).rq_len) (deferred_lengths t)

let large_cache_length t =
  match t.lcache with
  | None -> 0
  | Some c -> Large_cache.length c

let invariant_holds t ~heap_id =
  (* The invariant a free restores: either the heap is not too empty, or
     no transferable superblock remains (every candidate is some class's
     last, protected against ping-pong). *)
  let core = (heap_by_id t heap_id).core in
  (not (too_empty t core))
  || not (Heap_core.has_victim core ~max_fullness:(1.0 -. t.cfg.empty_fraction) ~protect_last:true)

let reservoir_length t =
  match t.reservoir with
  | None -> 0
  | Some res -> Sb_reservoir.length res

let check t =
  Heap_core.check t.global.core;
  Array.iter (fun h -> Heap_core.check h.core) t.heaps;
  (* Lock-free global index: the heap-0 core must be empty (every global
     superblock lives in the index), the index structurally sound, and
     every member owned by heap 0, registered and resident — membership
     is a transfer, never a release. *)
  (match t.gindex with
   | None -> ()
   | Some gi ->
     if Heap_core.superblock_count t.global.core <> 0 then
       failwith "Hoard.check: heap-0 core holds superblocks in lock-free mode";
     Global_index.check gi;
     Global_index.iter_members gi (fun sb ->
         if Superblock.owner sb <> 0 then failwith "Hoard.check: global member not owned by heap 0";
         let base = Superblock.base sb in
         if Sb_registry.lookup t.reg ~addr:(base + Superblock.header_bytes) = None then
           failwith "Hoard.check: global member not registered";
         if t.pf.Platform.page_residency ~addr:base <> Vmem.Resident then
           failwith "Hoard.check: global member not resident"));
  let s = Alloc_stats.snapshot t.stats in
  let total_u = Array.fold_left (fun acc h -> acc + Heap_core.u h.core) (Heap_core.u t.global.core) t.heaps in
  let total_u =
    total_u
    +
    match t.gindex with
    | Some gi -> Global_index.u_bytes gi
    | None -> 0
  in
  if total_u + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Hoard.check: live-bytes accounting mismatch";
  (* Deferred free lists and global-free shards (quiescent structural
     walk; [Deferred_list.iter] itself rejects cycles, payload-less nodes
     and length drift): every listed block is bitmap-live and
     custody-marked in its superblock — it stays charged to the owning
     heap until a reclaim, exactly like a queued block. *)
  let check_list = function
    | None -> ()
    | Some l ->
      Deferred_list.iter l (fun sb addr ->
          if not (Superblock.is_block_live sb addr) then
            failwith (Printf.sprintf "Hoard.check: deferred block %#x not bitmap-live" addr);
          if not (Superblock.is_block_cached sb addr) then
            failwith (Printf.sprintf "Hoard.check: deferred block %#x without custody mark" addr))
  in
  let check_heap_lists h =
    check_list h.dfl;
    check_list h.gfl
  in
  check_heap_lists t.global;
  Array.iter check_heap_lists t.heaps;
  (* Large cache: buckets within capacity, stacks structurally sound,
     every parked region mapped and decommitted. *)
  (match t.lcache with
   | None -> ()
   | Some c -> Large_cache.check c);
  (* Reservoir lifecycle (quiescent, like the heap walks above): parked
     superblocks are empty, unregistered, decommitted, within the cap, and
     the parked-byte accounting matches; the residency bound
     resident <= held + R * S follows and is asserted directly. *)
  match t.reservoir with
  | None ->
    if s.reservoir_bytes <> 0 then failwith "Hoard.check: reservoir bytes without a reservoir"
  | Some res ->
    let n = ref 0 in
    Sb_reservoir.iter res (fun sb ->
        incr n;
        if not (Superblock.is_empty sb) then failwith "Hoard.check: parked superblock has live blocks";
        let base = Superblock.base sb in
        if Sb_registry.lookup t.reg ~addr:(base + Superblock.header_bytes) <> None then
          failwith "Hoard.check: parked superblock still registered";
        if t.pf.Platform.page_residency ~addr:base <> Vmem.Decommitted then
          failwith "Hoard.check: parked superblock not decommitted");
    if !n > Sb_reservoir.cap res then failwith "Hoard.check: reservoir over capacity";
    if s.reservoir_bytes <> !n * t.cfg.sb_size then failwith "Hoard.check: reservoir byte accounting mismatch";
    if s.resident_bytes > s.held_bytes + (Sb_reservoir.cap res * t.cfg.sb_size) then
      failwith
        (Printf.sprintf "Hoard.check: residency bound violated (resident=%dB > held=%dB + R*S=%dB)"
           s.resident_bytes s.held_bytes
           (Sb_reservoir.cap res * t.cfg.sb_size))

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"hoard" ~owner:t.owner ~large_threshold:(Hoard_config.max_small t.cfg)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ~malloc_batch:(fun n size -> malloc_many t n size)
    ~flush:(fun () -> flush t)
    ~thread_exit:(fun () -> on_thread_exit t)
    ~realloc:(fun ~addr ~size -> realloc t ~addr ~size)
    ()

let factory ?(config = Hoard_config.default) ?obs () =
  {
    Alloc_intf.label = "hoard";
    description = "per-processor heaps + global heap, emptiness invariant (the paper's allocator)";
    instantiate = (fun pf -> allocator (create ~config ?obs pf));
  }

let pp_heaps fmt t =
  (* Aggregate per size class over any superblock iterator. *)
  let pp_classes iter =
    let nclasses = Size_class.count t.classes in
    let count = Array.make nclasses 0 and used = Array.make nclasses 0 and cap = Array.make nclasses 0 in
    iter (fun sb ->
        let c = Superblock.sclass sb in
        count.(c) <- count.(c) + 1;
        used.(c) <- used.(c) + Superblock.used sb;
        cap.(c) <- cap.(c) + Superblock.n_blocks sb);
    for c = 0 to nclasses - 1 do
      if count.(c) > 0 then
        Format.fprintf fmt "class %4dB: %2d sb, %4d/%4d blocks (%.0f%%)@,"
          (Size_class.size_of_class t.classes c)
          count.(c) used.(c) cap.(c)
          (100.0 *. float_of_int used.(c) /. float_of_int (max 1 cap.(c)))
    done;
    Format.fprintf fmt "@]@,"
  in
  let pp_heap h =
    let core = h.core in
    let label = if Heap_core.id core = 0 then "global" else Printf.sprintf "heap %d" (Heap_core.id core) in
    Format.fprintf fmt "@[<v 2>%s: %d superblocks, u=%dB a=%dB (%d empty)@," label
      (Heap_core.superblock_count core) (Heap_core.u core) (Heap_core.a core)
      (Heap_core.empty_superblock_count core);
    pp_classes (Heap_core.iter core)
  in
  Format.fprintf fmt "@[<v>";
  (match t.gindex with
   | Some gi ->
     let members = Global_index.members gi in
     Format.fprintf fmt "@[<v 2>global (lock-free index): %d superblocks, u=%dB a=%dB (%d empty)@,"
       members (Global_index.u_bytes gi)
       (members * t.cfg.sb_size)
       (Global_index.empties gi);
     pp_classes (Global_index.iter_members gi)
   | None -> pp_heap t.global);
  Array.iter pp_heap t.heaps;
  Format.fprintf fmt "@]"
