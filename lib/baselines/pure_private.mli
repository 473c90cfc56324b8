(** Pure private heaps ("pure private heaps" taxonomy row; models the
    STL/Cilk per-thread allocators).

    Each thread owns a private heap and never takes a lock on the fast
    path. A freed block goes onto the *freeing* thread's free list,
    whatever thread allocated it. This is fast and avoids heap contention,
    but — as the paper proves — suffers unbounded blowup: in a
    producer-consumer pattern the producer keeps mapping fresh superblocks
    while the freed memory accumulates, unusable, on the consumer's lists.
    Memory is never returned to the OS. Cross-thread frees also re-home
    blocks, passively inducing false sharing. *)

type t

val create : Platform.t -> t

val allocator : t -> Alloc_intf.t

val factory : unit -> Alloc_intf.factory

val thread_free_bytes : t -> tid:int -> int
(** Bytes sitting on one thread's private free lists (blowup diagnostics). *)

val check : t -> unit
