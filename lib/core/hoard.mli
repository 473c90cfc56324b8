(** The Hoard allocator (the paper's contribution).

    Structure: one global heap (heap 0) plus N per-processor heaps. A
    thread running on processor p allocates from heap [1 + p mod N]. Small
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

    {b Front end} (off by default): with [config.front_end = K > 0], each
    thread keeps a cache of up to [K] block addresses per size class.
    malloc pops and free pushes with no lock at all; misses and overflows
    move [K/2] blocks per heap-lock acquisition, and blocks evicted from a
    cache are batched onto the owning heap's remote-free queue (one
    innermost queue lock) for the owner to drain on its next locked slow
    path. Cached and queued blocks stay charged to the heap that owns
    their superblock, so the emptiness invariant, the blowup bound and
    {!check} are unchanged — the cost is up to
    [K * P * classes + remote_queue_cap * (P+1)] blocks of memory parked
    in flight. [front_end = 0] is bit-for-bit the paper's algorithm.

    {b Deferred frees} ([config.deferred], needs the front end): each
    heap's bounded remote-free queue is replaced by an unbounded
    intrusive {!Deferred_list} — eviction pushes the block itself with
    one CAS on the owner's list head (no queue lock, no cap, no locked
    fallback), and the owner detaches the whole list with a single
    exchange on its next fill/flush, batching the blocks back through
    the heap core. The charging discipline is the queue's, so every
    invariant above still holds exactly.

    {b Large cache} ([config.large_cache = C > 0]): a lock-free MPSC
    {!Large_cache} fronts the large-object path — freed regions of up
    to 16 pages park decommitted-but-mapped in bounded buckets (cap [C]
    each), and an allocation of the same page count takes one back with
    pop → commit instead of an OS map. Parked regions stay held, so the
    blowup envelope widens by at most [Large_cache.capacity_bytes]. *)

type t

val create : ?config:Hoard_config.t -> ?obs:Obs.t -> Platform.t -> t
(** With [obs], the instance traces into one {!Event_ring} per lock
    domain (["global"], ["heap1"].. plus ["large"]) and publishes its
    {!Alloc_stats} into the registry; without it, tracing costs nothing
    (the fast paths carry no event sites, slow-path sites are a single
    branch on an immutable [option]). *)

val allocator : t -> Alloc_intf.t
(** The public allocator interface backed by this instance. *)

val factory : ?config:Hoard_config.t -> ?obs:Obs.t -> unit -> Alloc_intf.factory

val config : t -> Hoard_config.t

val obs : t -> Obs.t option

val size_classes : t -> Size_class.t

val nheaps : t -> int
(** Number of per-processor heaps (excluding the global heap). *)

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
(** One row per heap (["global"], ["heap1"], ..): the heap's
    {!Heap_core.class_profile}. Reads without locking (like {!pp_heaps});
    call at quiescence. Feeds the observability heatmap. *)

val invariant_holds : t -> heap_id:int -> bool
(** The emptiness invariant [u >= a - K*S || u >= (1-f)*a] for a
    per-processor heap. Guaranteed immediately after any [free] into that
    heap; a malloc that installs a fresh superblock may transiently exceed
    it (the paper's algorithm enforces the invariant only on frees). *)

val check : t -> unit
(** Deep structural validation of every heap. Exact even while front-end
    caches and remote-free queues hold blocks (they stay charged to their
    owning heaps). *)

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
(** Pending remote-free count per heap (bounded queue plus deferred
    list), index 0 = global, which also sums the global-free shards.
    Lock-free reads; call at quiescence. *)

val deferred_lengths : t -> int array
(** Blocks currently parked on each heap's deferred free list, index 0 =
    global. Under [global = Lockfree] heap 0 has no list of its own and
    index 0 sums the per-heap global-free shards instead; otherwise it is
    heap 0's list (all zeros without [config.deferred]). Lock-free reads;
    call at quiescence. *)

val iter_global_free : t -> (heap:int -> Superblock.t -> int -> unit) -> unit
(** Test hook: no allocation path uses it. Every block parked on a
    global-free shard ([global = Lockfree] only), with the id of the heap
    whose shard holds it: the frees of blocks in global superblocks,
    waiting for that heap's next refill or flush, or for a parker to find
    the shard over its cap. Quiescent-only walk. *)

val large_cache_length : t -> int
(** Regions currently parked in the large-object cache (0 when
    [config.large_cache = 0]). Lock-free read; exact at quiescence. *)

val reservoir_length : t -> int
(** Superblocks currently parked in the reservoir (0 when
    [config.reservoir = 0]). Lock-free read; exact at quiescence. *)

val pp_heaps : Format.formatter -> t -> unit
(** Human-readable dump of every heap: per size class, the superblock
    count and aggregate fullness — the view used by
    [hoard_bench inspect]. *)

(** {2 Heap sanitizer (config.sanitize)} *)

exception Sanitizer_violation of string
(** An invalid heap operation caught by the sanitizer: double free, free
    of an interior/header/foreign pointer, use-after-free or overflow
    seen through the checked platform, or realloc/usable_size of a
    quarantined block. The message names the operation, the address, the
    owning superblock (base, class, block size, owner heap) and — when
    tracing is on — the owning heap's most recent event-ring entries. *)

val sanitizer_access_check : t -> (addr:int -> len:int -> write:bool -> unit) option
(** [Some checker] when the instance was created with [config.sanitize].
    Install it on the *workload's* view of the platform (wrap
    [Platform.read]/[write]) to turn stray touches of superblock memory —
    headers (canaries), dead or quarantined blocks (poison), spans past a
    block's end (overflow) — into {!Sanitizer_violation}. The allocator
    itself must keep the unchecked platform: it writes headers and
    free-list links legitimately. Addresses outside any superblock are
    ignored. *)

val quarantine_length : t -> int
(** Blocks currently held in the sanitizer quarantine (0 without
    [sanitize]). Frees deferred there are completed by {!flush_caches}
    (host-side) or a thread's [flush] (in-sim), so stats' free counters
    catch up at the latest then. *)
