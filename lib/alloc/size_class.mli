(** Geometric size classes.

    Small requests are rounded up to one of a fixed set of block sizes:
    8-byte steps up to 64 bytes, then geometric with the paper's growth
    factor b = 1.2 (rounded to 8-byte multiples) up to [max_small]. Objects
    above [max_small] take the allocator's large-object path. Bounded
    internal fragmentation: a block wastes at most [growth - 1] of its
    size. *)

type t

val create : ?min_block:int -> ?growth:float -> max_small:int -> unit -> t
(** [min_block] defaults to 8, [growth] to 1.2. [max_small] is the largest
    size served from superblocks (the paper uses S/2). *)

val count : t -> int
(** Number of classes. *)

val max_small : t -> int

val size_of_class : t -> int -> int
(** Block size of a class index (0-based, ascending). *)

val class_of_size : t -> int -> int
(** Smallest class whose block size is >= the request. Requests of 0 are
    treated as 1. Raises [Invalid_argument] if the request exceeds
    [max_small]. O(1): a precomputed size-indexed lookup table, this
    being on every malloc's path. *)

val class_of_size_search : t -> int -> int
(** A binary search over the class sizes: the reference for
    {!class_of_size}'s lookup table, which is filled in one pass over the
    classes. Exposed so tests can assert the two agree on every size. *)

val sizes : t -> int array
(** All block sizes, ascending (a copy). *)
