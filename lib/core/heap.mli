(** One heap's record and its remote-free channel, shared by
    {!Hoard}'s per-processor heaps and the locked {!Global_heap}'s heap
    0.

    A heap is its {!Heap_core} (fullness groups and the [u]/[a]
    accounting) behind its lock, with the stats shard of the same lock
    domain (which carries the domain's event ring when tracing), and its
    remote-free channel. Producers
    {!push} blocks of the heap's superblocks onto the channel; the owner
    {!detach}es the whole channel before taking the lock and {!drain}s
    it under the lock. How the channel stores a pending free is decided
    here alone. *)

type channel
(** The remote-free channel follows the configuration: none without a
    front end (whose evictions are its only producers), else a bounded
    queue under the [Locked] global heap and a {!Deferred_list} under
    [Lockfree]. Only this module looks inside: producers {!push}, the
    owner {!detach}es and {!drain}s. *)

type t = {
  pf : Platform.t;
  core : Heap_core.t;
  lock : Platform.lock;
  sh : Alloc_stats.shard;  (** with ring ["global"] or ["heap<id>"] attached when tracing *)
  channel : channel;
}

val create : Platform.t -> Hoard_config.t -> classes:Size_class.t -> stats:Alloc_stats.t -> ?obs:Obs.t -> int -> t
(** [create pf cfg ~classes ~stats ?obs id]: heap [id] (0 = global), with
    lock ["hoard.heap<id>"], stats shard [id] and, with [obs], a new ring
    ["global"] or ["heap<id>"] attached to it; with a front end, the
    queue lock ["hoard.rfq<id>"] (locked global heap) or the list
    ["hoard.dfl<id>"] (lock-free). *)

val id : t -> int

val find : t array -> zero:t option -> int -> t option
(** [find heaps ~zero id]: heap [id] of the per-processor [heaps] (ids
    1..N), or [zero] for [id = 0]. *)

type info = { heap_id : int; u_bytes : int; a_bytes : int; superblocks : int; empty_superblocks : int }

val info : t -> info

val by_superblock : (Superblock.t * 'a) list -> (Superblock.t * 'a list) list
(** Group a batch by superblock, in first-seen order, each group in batch
    order. *)

val touch_headers : Platform.t -> (Superblock.t * 'a) list -> unit
(** One header write per distinct superblock of a batch. *)

val free_owned : t -> Superblock.t -> int -> unit
(** Return one already-freed block (it sat in a cache or a channel) to the
    heap's core: host-side bookkeeping only, the caller holds the lock and
    issues the simulated writes. *)

val push :
  t -> own:bool -> sh:Alloc_stats.shard -> (Superblock.t * int * int) list -> (Superblock.t * int * int) list
(** Producer side, holding no heap lock: offer a front-end eviction's
    blocks of [h]'s superblocks (freed, custody-marked, still charged),
    in the cache's newest-first order, each with the link its free
    wrote, to [h]'s channel, [own] when the evicting thread's heap is
    [h]. A deferred list's push stores only the links not already in
    place ({!Deferred_list.push_many}). Returns the rejects in order, for
    the caller's locked path: everything
    without a channel; past its cap, under its innermost lock, for a
    queue; the whole batch when it would take an own-heap push past
    [remote_queue_cap], for a deferred list (one CAS, other pushes
    uncapped). Accepted blocks are noted on the evicting thread's [sh]:
    one [Remote_enqueue] per queue push, counting its blocks, one
    [Deferred_enqueue] per listed block. *)

val note_deferred : Alloc_stats.shard -> (Superblock.t * int * int) list -> unit
(** Note each block as a [Deferred_enqueue], the way {!push} does for a
    deferred list. *)

val pending : t -> int
(** Blocks waiting on [h]'s channel. Exact at quiescence. *)

val check : t -> unit
(** Quiescent structural validation of the heap's core and its
    channel: every block on a bounded queue or a deferred list
    bitmap-live and custody-marked, and the channel's length equal to
    its blocks. Raises [Failure]. *)

val channel_name : t -> string
(** ["none"], ["queue"] or ["list"]. *)

val run_ends : (Superblock.t * 'a) list -> (Superblock.t * 'a) list
(** The run ends of a detached deferred chain, in chain order: the last
    block of each maximal stretch of consecutive blocks in one
    superblock. Inside a run the chain's links already are the free
    list; of a chain of R runs over S superblocks, R - S run ends join a
    later run of their superblock and S end its free list. *)

val link_runs : Platform.t -> (Superblock.t * int * int) list -> unit
(** The link writes of a locked disposal of a batch, [(sb, addr, link)]
    in batch order, [link] what the block's first word holds: the
    batch's blocks of a superblock become the head of its free list in
    batch order, so a block is written unless its word already holds the
    next block of the batch and that block is of its superblock. A batch
    in a cache's newest-first order costs one write per run end. *)

type detached

val detach : t -> detached
(** Owner side, before the lock: take the whole channel (one swap of the
    queue under the queue lock, or one exchange of the deferred list)
    and write every link that does not depend on a free-list head —
    every queued block but the first of its superblock, or one join per
    deferred run that a later run of its superblock follows. A chain's
    blocks keep the links their words then hold, for any re-push. *)

val drain :
  t ->
  detached ->
  peer:(int -> t option) ->
  spill:(Superblock.t * int) list ref ->
  int * (Superblock.t * int * int) list
(** Owner side, under the lock: splice the detached batch into the core,
    one link and one header write per superblock. A block whose
    superblock migrated is forwarded to [peer owner]'s channel: a queued
    block to its queue, up to twice the cap, the rejects to [spill] for
    the caller's locked path after releasing the lock; a chain's blocks
    with one [push_many] per destination list, with their links. Returns
    the number of blocks freed into the heap and, in batch order with
    their links, the chain's blocks whose owner has no record ([peer
    owner = None]: heap 0 of the lock-free global heap), which the
    caller parks. Noted on [h]'s
    shard: each forward as a [Remote_forward], a queue drain that freed
    blocks as one [Remote_drain] and a chain as one [Deferred_reclaim],
    each with the freed count in [arg]. *)

val take_quiescent : t -> (Superblock.t * int) list
(** Empty the channel without platform effects: quiescent teardown only. *)
