(** The three locking rows of the paper's taxonomy (Table 1), as three
    policies over one mechanism: an array of {!Heap_core} heaps, each
    behind its own lock with its own stats shard. A malloc locks its
    *home* heap; a free locks the heap owning the block's superblock,
    since superblocks never change heaps in these allocators. A free is
    counted remote when that owner is not the freeing call's home heap.
    Small allocations come from 8 KiB superblocks; larger ones go to
    {!Locked_large}. *)

val serial : unit -> Alloc_intf.factory
(** Serial single heap (models Solaris malloc). One heap behind one lock
    ([serial.heap]), keeping up to 4 empty superblocks before unmapping.
    Fast and memory-efficient on one processor; on multiprocessors every
    malloc and free serialises on the lock (heap contention) and
    consecutive allocations by different threads share cache lines
    (actively induced false sharing). *)

val concurrent_single : unit -> Alloc_intf.factory
(** Concurrent single heap. One shared pool of superblocks, but
    fine-grained locking: each size class has its own heap and lock
    ([concsingle.class<i>]), so threads allocating different sizes
    proceed in parallel; each class heap keeps one empty superblock. Still
    a single logical heap: all threads draw blocks from the same
    superblocks, so active false sharing is rampant, and same-size-class
    traffic serialises on one lock. Blowup stays O(1), as in the paper's
    analysis of this family. *)

val private_ownership : unit -> Alloc_intf.factory
(** Private heaps with ownership (models Ptmalloc/MTmalloc arenas). One
    heap per processor, each with its own lock ([ownership.heap<i>]). A
    freed block returns to the heap *owning* its superblock, so — unlike
    pure private heaps — blowup is bounded; but because no memory ever
    moves between heaps or back to the OS, each heap retains its
    high-water mark and worst-case consumption is O(P * U), the
    factor-of-P blowup the paper measures for this family. *)
