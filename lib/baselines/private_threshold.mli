(** Private heaps with thresholds (the paper's fifth taxonomy row; models
    the Vee & Hsu allocator and the DYNIX kernel allocator).

    Like pure private heaps, each thread allocates from unlocked per-thread
    free lists — but every list has a *threshold*: when a thread's free
    list for a size class exceeds [threshold] blocks, half of them are
    flushed to a locked global pool, and a thread whose list is empty
    refills a batch from that pool before carving new memory. Freed memory
    therefore circulates between threads (bounded blowup, unlike pure
    private heaps) at the price of periodic lock traffic and of passive
    false sharing: blocks move between threads in batches with no regard
    for cache-line boundaries. *)

type t

val create : ?threshold:int -> Platform.t -> t

val allocator : t -> Alloc_intf.t

val factory : unit -> Alloc_intf.factory

val global_pool_blocks : t -> sclass:int -> int
(** Blocks currently parked in the global pool of a class (tests). *)

val check : t -> unit
