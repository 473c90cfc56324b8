(** The two private-heap rows of the paper's taxonomy (Table 1), as two
    policies over one mechanism. Each thread gets an unlocked heap, found
    by tid in a table guarded by one lock: per-class free lists with
    counts, and one superblock per class being carved. A freed block goes
    onto the *freeing* thread's list, whatever thread allocated it. Small
    allocations come from 8 KiB superblocks; larger ones go to
    {!Locked_large}. Memory is never returned to the OS. *)

val pure_private : unit -> Alloc_intf.factory
(** Pure private heaps (models the STL/Cilk per-thread allocators). The
    heap-table lock is [pureprivate.table]; no other lock is taken off the
    large path. Fast and free of heap contention, but — as the paper
    proves — with unbounded blowup: in a producer-consumer pattern the
    producer keeps mapping fresh superblocks while the freed memory
    accumulates, unusable, on the consumer's lists. Cross-thread frees
    also re-home blocks, passively inducing false sharing. *)

val private_threshold : unit -> Alloc_intf.factory
(** Private heaps with thresholds (models the Vee & Hsu allocator and the
    DYNIX kernel allocator). Pure private heaps plus a per-class pool
    behind a [threshold.pool<i>] lock (the table lock is
    [threshold.table]): a free that takes a list past 32 blocks moves all
    but 16 to the pool, and a malloc on an empty list first refills up to
    16 from it. Freed memory therefore circulates between threads
    (bounded blowup) at the price of periodic lock traffic and of passive
    false sharing: blocks move in batches with no regard for cache-line
    boundaries. *)

type t

val create : [ `Pure_private | `Private_threshold ] -> Platform.t -> t
(** An instance of one row, for tests that inspect its state. *)

val allocator : t -> Alloc_intf.t

val thread_free_bytes : t -> tid:int -> int
(** Bytes sitting on one thread's private free lists (blowup diagnostics). *)

val global_pool_blocks : t -> sclass:int -> int
(** Blocks parked in the pool of a class (the threshold row only). *)
