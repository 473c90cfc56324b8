(* A bounded remote-free queue. *)
type queue = {
  q_lock : Platform.lock; (* innermost lock: never held while acquiring any other *)
  mutable q_blocks : (Superblock.t * int) list; (* remote frees pending a drain, newest first *)
  mutable q_len : int;
  q_cap : int;
}

(* Where remote frees wait for their owner. The front end's evictions are
   the only producers, so without it there is no channel; with it, the
   channel follows the global heap: the locked one pairs with bounded
   queues (overflow takes the locked path, like heap 0's own lock), the
   lock-free one with deferred lists (producers CAS-push, the owner
   exchange-reclaims; a push by the heap's own threads is capped at
   [own_cap]). Only this module looks inside. *)
type channel =
  | No_channel
  | Queue of queue
  | List of { l : Deferred_list.t; own_cap : int }

type t = {
  pf : Platform.t;
  core : Heap_core.t;
  lock : Platform.lock;
  sh : Alloc_stats.shard; (* with the ring of the same lock domain, when tracing *)
  channel : channel;
}

type info = { heap_id : int; u_bytes : int; a_bytes : int; superblocks : int; empty_superblocks : int }

let create pf (cfg : Hoard_config.t) ~classes ~stats ?obs id =
  let channel =
    if cfg.front_end = 0 then No_channel
    else
      match cfg.global with
      | Hoard_config.Locked ->
        Queue
          {
            q_lock = pf.Platform.new_lock (Printf.sprintf "hoard.rfq%d" id);
            q_blocks = [];
            q_len = 0;
            q_cap = cfg.remote_queue_cap;
          }
      | Hoard_config.Lockfree ->
        List
          {
            l =
              Deferred_list.create pf ~name:(Printf.sprintf "hoard.dfl%d" id)
                ~lost_node:(cfg.mutant = "deferred-lost-node")
                ~on_retry:(Alloc_stats.retry_hook stats ~label:"deferred")
                ();
            own_cap = cfg.remote_queue_cap;
          }
  in
  let sh = Alloc_stats.shard stats id in
  Option.iter
    (fun o ->
      let ring = Obs.new_ring o (if id = 0 then "global" else Printf.sprintf "heap%d" id) in
      Alloc_stats.attach_ring sh ring pf ~heap:(fun () -> id))
    obs;
  let lock = pf.Platform.new_lock (Printf.sprintf "hoard.heap%d" id) in
  { pf; core = Heap_core.create ~id ~classes ~sb_size:cfg.sb_size (); lock; sh; channel }

let id h = Heap_core.id h.core

(* Heap [id] among the per-processor [heaps] (ids 1..N), or [zero]: heap
   0's record, which only the locked global heap has. *)
let find heaps ~zero id = if id = 0 then zero else Some heaps.(id - 1)

let info h =
  {
    heap_id = id h;
    u_bytes = Heap_core.u h.core;
    a_bytes = Heap_core.a h.core;
    superblocks = Heap_core.superblock_count h.core;
    empty_superblocks = Heap_core.empty_superblock_count h.core;
  }

(* Group a batch by its first components (compared physically), in
   first-seen order; each group keeps its items in batch order. Every
   per-superblock effect of a batch — one header write, one block left
   for the free-list head, one Busy handshake — walks these groups by
   superblock; a drain's forwards group by destination heap. *)
let group_by_first items =
  List.fold_left
    (fun groups (k, x) ->
      match List.assq_opt k groups with
      | Some r ->
        r := x :: !r;
        groups
      | None -> (k, ref [ x ]) :: groups)
    [] items
  |> List.rev_map (fun (k, r) -> (k, List.rev !r))

let by_superblock = group_by_first

(* Write the header of each distinct superblock in a batch once, in
   first-seen order. A batch updates a header's free-list head and counts
   for every block it moves, but they all sit on one line: dirtying it once
   per superblock per batch is the cost, not once per block — and every
   simulated write inside a critical section lengthens the hold that the
   lock's waiters spin through. *)
let touch_headers pf items = List.iter (fun (sb, _) -> Superblock.touch_header pf sb) (by_superblock items)

(* Return one block the program already freed (it sat in a cache, a
   queue or a deferred list) to [h]'s core: host-side bookkeeping only.
   The caller holds [h]'s lock and issues the simulated writes — the 8 B
   free-list links and one header write per superblock — for the whole
   batch. *)
let free_owned h sb addr =
  Superblock.clear_cached sb addr;
  Heap_core.free h.core sb addr;
  Alloc_stats.on_drain h.sh ~usable:(Superblock.block_size sb)

(* Append [items] to [q], in order, under its innermost lock while it
   holds fewer than [cap] blocks; returns the rejects, in order. The
   queue keeps no links: the owner's [prelink] writes them. *)
let enqueue q ~cap items =
  q.q_lock.acquire ();
  let rejects =
    List.filter
      (fun (sb, addr, _) ->
        let accepted = q.q_len < cap in
        if accepted then begin
          q.q_blocks <- (sb, addr) :: q.q_blocks;
          q.q_len <- q.q_len + 1
        end;
        not accepted)
      items
  in
  q.q_lock.release ();
  rejects

(* Offer blocks of [h]'s superblocks (freed, custody-marked, still
   charged) to [h]'s channel from a thread holding no heap lock; returns
   the rejects, in order, for the caller's locked path. A bounded queue
   takes blocks while it holds fewer than its cap — twice the cap for a
   drain's [forward]s, so a drain meeting a full peer queue still moves
   its migrated blocks on, yet cannot keep re-inflating its peers. A
   deferred list takes the whole batch with one pre-linked CAS, no queue
   lock, or none of it when [own] (a push by [h]'s own threads) would
   take it past its own-heap cap: those blocks would otherwise wait,
   charged, for [h]'s next fill, and the cap keeps that backlog as short
   as a queue's. A push that meets a full list rejects the batch after
   one head load, having linked nothing, so the locked path writes its
   links only once. Other pushes are uncapped. A block whose superblock
   migrated since the caller read its owner just lands on the stale
   owner's channel, whose drain forwards it. No channel rejects
   everything. Each block comes with the link its first word holds, which
   a list's push keeps where it already is the next block. *)
let offer ?(forward = false) h ~own items =
  match h.channel with
  | No_channel -> items
  | Queue q -> enqueue q ~cap:(if forward then 2 * q.q_cap else q.q_cap) items
  | List { l; own_cap } -> if Deferred_list.push_many ?cap:(if own then Some own_cap else None) l items then [] else items

let note_deferred sh items =
  List.iter
    (fun (sb, addr, _) -> Alloc_stats.note sh Event_ring.Deferred_enqueue ~sclass:(Superblock.sclass sb) ~arg:addr)
    items

(* A front-end eviction's [offer], noted on the evicting thread's shard
   [sh]: a queue's accepted blocks as one event, a list's as one each. *)
let push h ~own ~sh items =
  let rejects = offer h ~own items in
  (match (h.channel, rejects) with
   | Queue _, _ ->
     let accepted = List.length items - List.length rejects in
     if accepted > 0 then begin
       let sb, _, _ = List.hd items in
       Alloc_stats.note sh Event_ring.Remote_enqueue ~n:accepted ~sclass:(Superblock.sclass sb) ~arg:accepted
     end
   | List _, [] -> note_deferred sh items
   | (List _ | No_channel), _ -> ());
  rejects

(* A drain's private batch, taken BEFORE the heap lock by [detach]. *)
type detached =
  | Queued of (Superblock.t * int) list (* from the bounded queue, newest first *)
  | Chain of (Superblock.t * int * int) list (* from the deferred list, most recent first, with links *)

(* The run ends of a detached deferred chain, in chain order: the last
   block of each maximal stretch of consecutive chain blocks in one
   superblock. The chain is threaded through the blocks' first words,
   the same word as their free-list links, and a producer's [push_many]
   links consecutive blocks to each other — so inside a run every link
   already points at the next free block of the superblock. Only a run
   end's link is stale: it must point at the superblock's next run, or,
   for its final run, at the free-list head. *)
let run_ends items =
  let rec go acc = function
    | [] -> List.rev acc
    | [ x ] -> List.rev (x :: acc)
    | ((sb, _) as x) :: ((sb', _) :: _ as rest) -> go (if sb == sb' then acc else x :: acc) rest
  in
  go [] items

(* A detached chain with the link each block holds once its joins are
   written, and the joins, in chain order: the run ends that a later run
   of their own superblock follows, each now linked to the first block
   of that run. Every other block keeps its chain link. *)
let relink chain =
  (* From the tail: [starts] holds, per superblock, the first block of
     its nearest later run. *)
  let rec go starts after acc joins = function
    | [] -> (acc, joins)
    | ((sb, addr, _) as x) :: earlier ->
      let x, joins =
        match List.assq_opt sb starts with
        | Some start when not (after == sb) -> ((sb, addr, start), addr :: joins)
        | _ -> (x, joins)
      in
      go ((sb, addr) :: List.remove_assq sb starts) sb (x :: acc) joins earlier
  in
  match List.rev (Deferred_list.linked chain) with
  | [] -> ([], [])
  | ((sb, addr, _) as tail) :: earlier -> go [ (sb, addr) ] sb [ tail ] [] earlier

(* The links a locked disposal writes: the batch's blocks become the
   heads of their superblocks' free lists, each block linked to the next
   block of its superblock in the batch, a superblock's last to its old
   head. A block whose word already holds the next block of the batch,
   of its own superblock, is not written, so a batch that arrives linked
   (in a cache's newest-first order) costs one write per run end, as a
   [splice] does. *)
let rec link_runs (pf : Platform.t) = function
  | (sb, addr, link) :: ((sb', next, _) :: _ as rest) ->
    if not (sb == sb' && link = next) then pf.write ~addr ~len:8;
    link_runs pf rest
  | [ (_, addr, _) ] -> pf.write ~addr ~len:8
  | [] -> ()

(* Pre-link a bounded-queue batch, outside the heap lock: per
   superblock, the blocks after the first seen are linked to each other,
   one 8 B write each. Only the first block's link depends on the
   superblock's current free-list head, so [splice] writes it under the
   lock. The blocks are custody-marked and still charged to live bytes,
   so their superblock cannot empty, park or unmap underneath these
   writes; a superblock that migrates meanwhile is forwarded with its
   links, the writes wasted. The writes go in batch order, not grouped
   per superblock: their order is schedule-visible, and regrouping them
   changes the simulated cycles of every configuration that drains a
   batch. *)
let prelink (pf : Platform.t) items =
  let rec go seen = function
    | [] -> ()
    | (sb, addr) :: rest ->
      if List.memq sb seen then begin
        pf.write ~addr ~len:8;
        go seen rest
      end
      else go (sb :: seen) rest
  in
  go [] items

let rec last = function
  | [ x ] -> x
  | _ :: tl -> last tl
  | [] -> invalid_arg "Heap.last"

(* The in-lock half of a pre-linked batch. Ownership is re-checked per
   block: [h]'s own blocks go back to its core, the others to
   [forward]. Then, per distinct superblock freed, in first-seen order,
   the one link write that depends on the free-list head — the block
   [stale] picks from the superblock's blocks, in batch order, now points
   at the head — and one header write. Every block of a superblock gets
   the same verdict under [h]'s lock (migration away from [h] needs that
   lock), so the freed blocks form whole superblock groups and the
   picked block is the one the pre-lock writes left unlinked. Waiters spin
   for as long as the lock is held, so it is held for O(superblocks)
   effects, not O(blocks). Caller holds [h]'s lock. Returns the number of
   blocks freed into [h]. *)
let splice h items ~stale ~forward =
  let freed =
    List.filter_map
      (fun ((sb, addr, _) as x) ->
        let owner_id = Superblock.owner sb in
        if owner_id = id h then begin
          free_owned h sb addr;
          Some (sb, addr)
        end
        else begin
          forward owner_id x;
          None
        end)
      items
  in
  List.iter
    (fun (sb, addrs) ->
      h.pf.Platform.write ~addr:(stale addrs) ~len:8;
      Superblock.touch_header h.pf sb)
    (by_superblock freed);
  List.length freed

(* Owner side of the remote-free channel, first half, run WITHOUT [h]'s
   lock so the lock's waiters never spin through it: one swap under
   the innermost queue lock takes [h]'s bounded queue, or one exchange
   takes its whole deferred list (plus the chain walk), and every link
   that does not depend on a free-list head is written. For the queue
   that is [prelink]; for the chain, one join per run end that a later
   run of its superblock follows. Threads sharing [h] detach disjoint
   batches; detached blocks keep their custody marks and stay charged to
   live bytes until the splice frees them. *)
let detach h =
  match h.channel with
  | No_channel -> Queued []
  | Queue q ->
    (* Uncharged host read of a count producers write; charging it needs a simulated word and a costed read. *)
    if q.q_len = 0 then Queued []
    else begin
      q.q_lock.acquire ();
      let items = q.q_blocks in
      q.q_blocks <- [];
      q.q_len <- 0;
      q.q_lock.release ();
      prelink h.pf items;
      Queued items
    end
  | List { l; _ } ->
    let chain, joins = relink (Deferred_list.reclaim l) in
    List.iter (fun addr -> h.pf.Platform.write ~addr ~len:8) joins;
    Chain chain

(* Return a batch swapped off [h]'s bounded queue (by [detach], before
   the lock) to [h]'s core. A block whose superblock migrated since it
   was enqueued is forwarded to the current owner's queue — but
   boundedly: forwarding past the cap used to grow queues without limit
   (a drain could keep re-inflating its peers), so a forward is accepted
   only up to 2x the cap and counted; rejects land on [spill] for the
   caller to route through the classic locked path AFTER releasing [h]'s
   lock — taking another heap's lock here would invert the lock order
   (the queue lock is innermost, so taking a peer's cannot deadlock).
   Queues come with the locked global heap, whose heap 0 has a record
   and a queue like every other heap. *)
let drain_queued h items ~peer ~spill =
  match items with
  | [] -> 0
  | _ ->
    let forward owner_id ((sb, addr, _) as x) =
      let accepted =
        match peer owner_id with
        | Some p -> offer ~forward:true p ~own:false [ x ] = []
        | None -> false
      in
      if accepted then Alloc_stats.note h.sh Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr
      else spill := (sb, addr) :: !spill
    in
    let mine = splice h (List.map (fun (sb, addr) -> (sb, addr, 0)) items) ~stale:List.hd ~forward in
    if mine > 0 then Alloc_stats.note h.sh Event_ring.Remote_drain ~sclass:0 ~arg:mine;
    mine

(* Owner side, second half: splice a detached chain into [h]'s core. The
   link written under the lock is each superblock's final run end (its
   last block in chain order), the one [detach] left for the free-list
   head. Blocks whose superblock migrated since their push are re-pushed
   onto the CURRENT owner's list, all of one owner's with one
   [push_many] in chain order, so their runs stay runs there, and with
   their links, so the push writes only the ones that change; the push
   is uncapped, so unlike the bounded queues, forwarding can neither
   cascade nor spill into the locked path. Lists come with the lock-free
   global heap, whose heap 0 has no record: its blocks are returned, in
   chain order, for the caller to park. *)
let free_reclaimed h items ~peer =
  match items with
  | [] -> (0, [])
  | _ ->
    let moved = ref [] and to_global = ref [] in
    let forward owner_id ((sb, addr, _) as x) =
      (match peer owner_id with
       | Some p -> moved := (p, x) :: !moved
       | None -> to_global := x :: !to_global);
      Alloc_stats.note h.sh Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr
    in
    let mine = splice h items ~stale:last ~forward in
    List.iter (fun (p, batch) -> ignore (offer p ~own:false batch)) (group_by_first (List.rev !moved));
    Alloc_stats.note h.sh Event_ring.Deferred_reclaim ~sclass:0 ~arg:mine;
    (mine, List.rev !to_global)

let drain h detached ~peer ~spill =
  match detached with
  | Queued items -> (drain_queued h items ~peer ~spill, [])
  | Chain items -> free_reclaimed h items ~peer

(* The blocks waiting on [h]'s channel, taken without platform effects
   (the list's drain uses charge-free peek/poke): for quiescent teardown
   only. A queue gives its blocks newest first, a list oldest first. *)
let take_quiescent h =
  match h.channel with
  | No_channel -> []
  | Queue q ->
    let items = q.q_blocks in
    q.q_blocks <- [];
    q.q_len <- 0;
    items
  | List { l; _ } -> List.rev (Deferred_list.drain_quiescent l)

(* Blocks waiting on [h]'s channel; exact at quiescence. *)
let pending h =
  match h.channel with
  | No_channel -> 0
  | Queue q -> q.q_len
  | List { l; _ } -> Deferred_list.length l

(* Every block waiting on the channel is bitmap-live and custody-marked
   in its superblock: it stays charged to its owner until a drain frees
   it. A queue's length must match its blocks, as a list's must. *)
let check h =
  Heap_core.check h.core;
  match h.channel with
  | List { l; _ } -> Deferred_list.check l
  | Queue q ->
    List.iter (fun (sb, addr) -> Superblock.check_in_custody ~what:"queued" sb addr) q.q_blocks;
    let n = List.length q.q_blocks in
    if n <> q.q_len then
      failwith (Printf.sprintf "Hoard.check: heap %d queues %d blocks but counts %d" (id h) n q.q_len)
  | No_channel -> ()

let channel_name h =
  match h.channel with
  | No_channel -> "none"
  | Queue _ -> "queue"
  | List _ -> "list"
