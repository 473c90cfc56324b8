(** {!Hoard}'s front end: one lock-free cache of freed blocks per
    thread and size class, and the only module that knows how a cache
    is stored.

    A cache holds up to [cap = max K (K * 16 / block)] blocks of a class
    ([K = config.front_end]): [K] for every class of 16 B or more, [2K]
    for 8 B blocks, so no class moves less than [K * 8] bytes per
    heap-lock trip. A miss for [n] blocks, a single malloc's ([n = 1])
    or the part of a batch the cache could not cover, brings
    [n + cap/2] blocks from the heap in one trip: [n] to return, [cap/2]
    cached, so the next [cap/2] mallocs of the class stay lock-free. A
    push into a class at its cap first evicts the class's oldest half,
    keeping the newest [cap/2], so the next [cap/2] frees stay
    lock-free.

    Cached blocks stay bitmap-live in their superblocks and charged to
    the heap that owns them, so the emptiness invariant and the blowup
    bound reason about them exactly as if the program still held them.
    Each carries its superblock's custody mark ({!Superblock.mark_cached})
    from its push until its pop, whichever thread caches it, so a second
    free of a cached block is caught in O(1).

    A slot keeps, beside its block, the link its free wrote into the
    block's first word: the address of the class's top block at that
    moment, or 0 when the class was empty. A fill's blocks are pushed
    unwritten, so their slots keep no link (0). Newest first, a class's
    slots therefore already form a chain: every slot with a link points
    at the slot below it, but for the oldest, whose link target has
    since been cut or popped.

    Blocks leave a cache in bulk only one way: the class is cut down to
    its newest blocks, noted as one [Cache_flush] of that many blocks on
    the cache's stats shard,
    and the rest handed, newest first with their links, to the
    [surrender] function given at {!create}, which decides where they go
    — an eviction keeps [cap/2], {!flush} and {!retire} keep none. The quiescent {!drain_quiescent} cuts the
    same way but notes nothing, so [alloc.cache_flushes] counts only the
    flushes of running threads, each one recorded.

    Caches are found by thread id. Thread ids recycle across sequential
    domains: a domain that adopts a live cache re-registers the
    [Domain.at_exit] flush, so a real worker domain empties its cache
    into [surrender] when it exits. Simulated threads share the creating
    domain and register nothing; {!drain_quiescent} empties their caches
    after the run. *)

type t
(** Every cache of one allocator instance, its per-class caps and where
    evicted blocks go. *)

type cache
(** One thread's cache: per class, the slots newest first and their
    count, with its own stats shard (single writer: the owning thread),
    which carries, when tracing, its own event ring ["tcache<tid>"]. *)

val create :
  Platform.t ->
  front_end:int ->
  classes:Size_class.t ->
  stats:Alloc_stats.t ->
  ?obs:Obs.t ->
  home:(unit -> int) ->
  surrender:(cache -> (Superblock.t * int * int) list -> unit) ->
  unit ->
  t
(** [front_end] is [K > 0]. [home ()] is the calling thread's heap id,
    which the cache's events record. [surrender c blocks] takes blocks cut
    from [c], as [(superblock, addr, link)] triples, freed and still
    custody-marked, classes ascending and each class newest first, so
    that a block's [link] is the address of the next block of its class
    in the list wherever the two were adjacent slots; it is called
    holding no heap lock. Creates no cache,
    shard or ring: caches appear on their thread's first call. *)

val mine : t -> cache
(** The calling thread's cache, created on its first call. *)

val pop : cache -> size:int -> sclass:int -> int option
(** A hit: the class's newest block, out of custody, counted as a
    malloc of [size] bytes, noted as a [Cache_hit] and written once.
    [None] when the class is empty. *)

val push : cache -> sclass:int -> Superblock.t -> int -> unit
(** A free: take the block into custody as the class's newest, keeping
    the class's top block (after any eviction) as its link, the value
    the caller's free writes into the block's first word. A class at its
    cap first has its oldest half cut and surrendered. *)

val fill : cache -> sclass:int -> (int * Superblock.t) list -> unit
(** A miss's surplus, [(addr, superblock)] pairs pushed in order into a
    class the miss found empty: at most [cap/2] blocks, so it never
    evicts. The blocks are not written, so their slots keep no link and
    each is written when it leaves the cache. *)

val fill_size : cache -> sclass:int -> int
(** Blocks a miss caches for [sclass] beyond the ones it returns:
    [cap/2]. *)

val shard : cache -> Alloc_stats.shard
(** The cache's stats shard, for counts and events noted on its
    behalf. *)

val flush : t -> unit
(** Empty the calling thread's cache, if it has one, into [surrender]. *)

val retire : t -> unit
(** {!flush}, then forget the calling thread's cache: a later thread
    recycling the tid starts from a fresh one. *)

(** {2 Quiescent — no platform locks, costs or events} *)

val drain_quiescent : t -> (Superblock.t -> int -> unit) -> unit
(** Cut every class of every cache to nothing, noting no flush, and
    pass each block, still custody-marked, to the function:
    caches in ascending thread id, classes ascending, blocks newest
    first. *)

val counts : t -> (int * int array) list
(** Per thread id (ascending), the per-class number of cached blocks. *)

val check : t -> unit
(** Every class of every cache: its count equals its list's length and
    stays within its cap, each block is bitmap-live and custody-marked,
    and each slot's link is 0 or the address of the slot below it (the
    oldest slot's is not checked). Raises [Failure]. *)

