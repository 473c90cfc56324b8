(** The Hoard allocator (the paper's contribution).

    Structure: one global heap (heap 0) plus N per-processor heaps. A
    thread running on processor p allocates from heap [1 + p mod N]; with
    an explicit [config.nheaps], thread t allocates from heap
    [1 + hash t mod N] instead. Small
    requests (<= S/2) are served from superblocks; each heap keeps its
    superblocks segregated by size class and sorted into fullness groups,
    and allocation takes the fullest superblock with space (keeping memory
    densely packed). When a heap has nothing suitable it pulls a superblock
    from the global heap, and only when the global heap is also empty does
    it map fresh memory from the OS.

    [free] returns a block to the superblock's *owning* heap (never the
    caller's), which prevents actively-induced false sharing and, combined
    with the emptiness invariant, bounds blowup: after every free, a
    per-processor heap with [u] bytes in use out of [a] bytes held must
    satisfy [u >= a - K*S] or [u >= (1-f)*a]; if both fail, a superblock
    that is at least f-empty is moved to the global heap, from which any
    processor can reuse it. Empty superblocks beyond a threshold are
    returned from the global heap to the OS.

    Requests above S/2 go straight to the OS (large-object path).

    {b Global heap}: heap 0 sits behind the one signature of
    {!Global_heap} — take (refill), put (trim victims, exit orphans and
    the surplus release), park/complete (frees into global superblocks)
    and the quiescent reads — with two implementations chosen once here
    from [config.global]: the paper's locked heap 0 ({!Heap.t} with its
    own lock, core and remote-free channel), or the lock-free
    {!Global_index} with per-heap global-free shards, under which heap 0
    has no record and no lock at all. Each per-processor heap is a
    {!Heap.t}: its core, lock, stats shard (carrying its ring when
    tracing) and remote-free channel.

    {b Front end} (off by default): with [config.front_end = K > 0], each
    thread keeps a {!Thread_cache} of up to [cap = max K (K * 16 / block)]
    blocks per size class: [K] for every class of 16 B or more, [2K] for
    8 B blocks, so no class moves less than [K * 8] bytes per trip.
    malloc pops and free pushes with no lock at all; misses and overflows
    move [cap/2] blocks per heap-lock acquisition, and an overflow whose
    own-heap blocks must take the heap lock (its channel rejected them)
    takes the class's whole cache along, up to [cap] blocks in that one
    acquisition. That module alone
    stores the caches; this one fills them from the heap and decides
    where the blocks a cache gives up go: batched onto the owning heap's
    remote-free channel for the owner to drain on its next slow path. The channel follows
    [config.global]. Under the locked global heap it is a bounded queue
    (one innermost queue lock; overflow takes the locked free path), at
    a cost of up to [2K * P * classes + remote_queue_cap * (P+1)] blocks
    parked in flight. Under the lock-free one it is an intrusive
    {!Deferred_list}: eviction pushes the blocks themselves
    with one CAS on the owner's list head (no queue lock), and the owner
    detaches the whole list with a single exchange. Remote pushes are
    uncapped; an eviction onto the evicting thread's own heap's list
    that would take it past [remote_queue_cap] takes the locked free path
    instead, with the rest of its class, so at most [remote_queue_cap]
    own blocks per heap wait there. A miss has one path: [malloc] and
    [malloc_batch] pop the class's cached blocks first, and what the
    cache cannot cover,
    [n] blocks, takes one heap-lock acquisition that drains the heap's
    channel, takes [n + cap/2] blocks, returns [n], caches the rest and
    restores the emptiness invariant if the drain freed anything.
    [free_batch] pays
    the per-call path cost once, then frees each block exactly as
    [free] does. Cached and pending blocks stay charged to the heap
    that owns their superblock, so the emptiness invariant, the blowup
    bound and {!check} are unchanged. [front_end = 0] is bit-for-bit the
    paper's algorithm.

    {b Large cache} ([config.large_cache = C > 0]): a lock-free MPSC
    {!Large_cache} fronts the large-object path — freed regions of up
    to 16 pages park decommitted-but-mapped in bounded buckets (cap [C]
    each), and an allocation of the same page count takes one back with
    pop → commit instead of an OS map. Parked regions stay held, so the
    blowup envelope widens by at most [C] regions per bucket. *)

type t

val create : ?config:Hoard_config.t -> ?obs:Obs.t -> Platform.t -> t
(** With [obs], the instance traces into one {!Event_ring} per lock
    domain (["heap1"].., ["large"], plus ["global"] for the locked global
    heap, the only one with a lock domain of its own, and ["tcache<tid>"]
    per front-end cache), each attached to the domain's stats shard, and
    publishes its {!Alloc_stats} into the registry; without it, tracing
    costs nothing: each {!Alloc_stats.note} counts, then branches once on
    the shard's absent ring. *)

val allocator : t -> Alloc_intf.t
(** The public allocator interface backed by this instance. *)

val factory : ?config:Hoard_config.t -> ?obs:Obs.t -> unit -> Alloc_intf.factory
(** Its [vmem_backend] is [config]'s, so the machine a harness builds for
    it uses the backend the configuration names. *)

val config : t -> Hoard_config.t

val size_classes : t -> Size_class.t

val nheaps : t -> int
(** Number of per-processor heaps (excluding the global heap). *)

val path_work : int
(** Instruction cycles charged per malloc/free call beyond its memory
    operations: 30. *)

(** {2 Introspection (tests, experiments)} *)

type heap_info = {
  heap_id : int;  (** 0 = global *)
  u_bytes : int;
  a_bytes : int;
  superblocks : int;
  empty_superblocks : int;
}

val heap_info : t -> int -> heap_info
(** [heap_info t i] for [i] in [0 .. nheaps t]. *)

val fullness_profile : t -> (string * (int * float) array) array
(** One row per heap (["global"], ["heap1"], ..): the
    {!Heap_core.class_profile} of its superblocks — for ["global"], the
    members of whichever global heap the instance runs. Reads without
    locking (like {!pp_heaps}); call at quiescence. Feeds the
    observability heatmap. *)

val invariant_holds : t -> heap_id:int -> bool
(** The emptiness invariant [u >= a - K*S || u >= (1-f)*a] for a
    per-processor heap. Guaranteed immediately after every call that
    frees into that heap: a free that reaches the heap itself (not a
    push into a thread cache), and every call that drains the heap's remote-free channel — a
    front-end [malloc] or [malloc_batch] that misses the cache, a
    [flush] — each of which trims the heap before it returns. A malloc
    that installs a fresh superblock may transiently exceed it (the
    paper's algorithm enforces the invariant only on frees). Heap 0 is
    not covered: {!Global_heap} drains heap 0's channel before each
    refill from the locked global heap and trims nothing there, since
    heap 0 keeps no emptiness invariant, only the bound on its surplus
    empty superblocks that its next put releases. *)

val check : t -> unit
(** Deep structural validation of every heap, every remote-free channel
    and every thread cache ({!Thread_cache.check}). Exact even while
    front-end caches and remote-free channels hold blocks (they stay
    charged to their owning heaps). *)

val on_thread_exit : t -> unit
(** The calling (simulated) thread is retiring: flushes and retires its
    front-end cache (a later thread recycling the tid starts fresh),
    drains the pending remote frees of its heap, then releases the heap
    assignment by moving every superblock still on that heap to the
    global heap — orphaned superblocks are adopted for reuse by any
    processor instead of stranded against the held envelope. Each
    adoption is counted in [orphan_adoptions] and traced as an
    [Orphan_adopt] event. Idempotent per thread; exposed through
    {!Alloc_intf.t.thread_exit}. *)

(** {2 Front end} *)

val flush_caches : t -> unit
(** Quiescent-only: returns every block held in thread caches and
    remote-free queues to its owning heap core, then re-establishes the
    emptiness invariant. Touches no platform locks, charges no costs and
    records no events, so it is callable from outside any simulated
    thread (after a run, before reading exact figures). Live bytes equal
    the program's outstanding allocations exactly afterwards. *)

val cache_counts : t -> (int * int array) list
(** Per thread id (ascending), the per-class number of cached blocks.
    Lock-free reads; call at quiescence. *)

val remote_queue_lengths : t -> int array
(** Pending remote frees per heap, whatever holds them: each heap's
    remote-free channel ({!Heap.pending}), and at index 0 (global) heap
    0's channel, if it has a record, plus every block parked on the
    global heap's per-heap shards. Lock-free reads; call at quiescence. *)

val iter_global_free : t -> (heap:int -> Superblock.t -> int -> unit) -> unit
(** Test hook: no allocation path uses it. Every block parked on a
    global-free shard ([global = Lockfree] only), with the id of the heap
    whose shard holds it: the frees of blocks in global superblocks,
    waiting for that heap's next refill or flush, or for a parker to find
    the shard over its cap. Quiescent-only walk. *)

val large_cache_length : t -> int
(** Regions currently parked in the large-object cache (0 when
    [config.large_cache = 0]). Lock-free read; exact at quiescence. *)

val pp_heaps : Format.formatter -> t -> unit
(** Human-readable dump of every heap: per size class, the superblock
    count and aggregate fullness — the view used by
    [hoard_bench inspect]. *)

(** {2 Inspection hooks (checking layers such as {!Sanitizer})} *)

val lookup : t -> int -> Superblock.t option
(** The registered superblock spanning an address, if any. Host-side
    registry read: no simulated cost, no scheduling point. *)

val heap_ring : t -> int -> Event_ring.t option
(** The ring attached to heap [id]'s stats shard ([0] = global), when
    tracing is on and the heap has a record; [None] for any other id. *)

val free_quiescent : t -> int -> unit
(** Quiescent-only, like {!flush_caches}: completes the free of a
    superblock block the program freed but a checking layer held back,
    counting it as a free, with no platform cost. Call it before
    {!flush_caches}. *)
