(** One heap: superblocks segregated by size class and sorted into fullness
    groups.

    This is the machinery shared by Hoard's per-processor heaps, its global
    heap, the serial allocator and the ptmalloc-style arenas: allocation
    searches a size class's groups from fullest to emptiest (the policy the
    paper uses to keep superblocks densely packed), completely empty
    superblocks are pooled class-agnostically for reuse by any class, and
    the [u_i] (bytes in use) / [a_i] (bytes held) pair needed by Hoard's
    emptiness invariant is maintained incrementally.

    Heap_core performs no locking and no platform access: callers wrap
    operations in their own locks and charge their own costs. *)

type t

val create : id:int -> classes:Size_class.t -> sb_size:int -> unit -> t
(** A heap sorts each class into {!ngroups} partial-fullness bins. A
    class's lists are made on its first insert, so a class the run never
    uses costs the heap one array slot. *)

val id : t -> int

val sb_size : t -> int

val ngroups : int
(** Partial-fullness groups per size class in every heap: 8. *)

val bin_index : ngroups:int -> used:int -> cap:int -> int
(** The fullness-group bin for a superblock with [used] of [cap] blocks
    allocated: bins [0 .. ngroups-1] partition the partial fullness range
    ([used * ngroups / cap]), bin [ngroups] is "completely full" and bin
    [ngroups + 1] "completely empty". Pure — the heaps call it with
    {!ngroups} groups, the lock-free global index with one (empty,
    partial or full). *)

val full_bin_index : ngroups:int -> int

val empties_bin_index : ngroups:int -> int

val u : t -> int
(** Bytes in use by the program from this heap's superblocks. *)

val a : t -> int
(** Bytes held by this heap's superblocks ([count * sb_size]). *)

val usable_a : t -> int
(** Usable bytes held: sum over superblocks of [n_blocks * block_size]
    (i.e. [a] minus header and carving waste). Hoard's emptiness invariant
    is defined on this quantity so that "too empty" always implies an
    f-empty superblock exists (the averaging argument of the paper's
    analysis, made exact in the presence of per-superblock overhead). *)

val superblock_count : t -> int

val empty_superblock_count : t -> int

val insert : t -> Superblock.t -> unit
(** Adopts a superblock (possibly partially full): sets its owner, links it
    into the right group and accounts its [a]/[u] contribution. *)

val remove : t -> Superblock.t -> unit
(** Unlinks a superblock and removes its [a]/[u] contribution. Its owner
    field is left for the caller to reassign. *)

val malloc : t -> sclass:int -> block_size:int -> (int * Superblock.t) option
(** Allocates a block of the given class, preferring the fullest
    non-full superblock, then recycling an empty superblock (reinitialised
    to the class if needed). [None] when the heap has nothing suitable —
    the caller then goes to the global heap or the OS. *)

val free : t -> Superblock.t -> int -> unit
(** Frees a block belonging to one of this heap's superblocks and
    repositions the superblock in its fullness groups. *)

val malloc_batch : t -> sclass:int -> block_size:int -> n:int -> (int * Superblock.t) list
(** Up to [n] blocks of the given class in one pass (possibly spanning
    several superblocks). Shorter than [n] exactly when the heap runs out
    of allocatable superblocks for the class — the caller refills from
    the global heap or the OS and retries. This is the fill half of the
    front-end cache: [n] blocks cross the heap for one lock acquisition. *)

val take_for_class : t -> sclass:int -> Superblock.t option
(** Removes and returns the fullest non-full superblock of the given class,
    or failing that an empty superblock (left un-reinitialised). This is
    the global-heap side of Hoard's superblock transfer. *)

val pick_victim : ?protect_last:bool -> t -> max_fullness:float -> Superblock.t option
(** Removes and returns a superblock whose fullness is at most
    [max_fullness], preferring empty ones, then emptier bins (paper: the
    superblock moved to the global heap is at least [f]-empty). With
    [protect_last] (default false), a size class's last superblock in this
    heap is never chosen unless it is completely empty — transferring it
    would only force the next allocation of that class straight back to
    the global heap (see DESIGN.md on global-heap ping-pong). [None] if no
    superblock qualifies. *)

val has_victim : t -> max_fullness:float -> protect_last:bool -> bool
(** Whether {!pick_victim} would succeed, without removing anything. *)

val iter : t -> (Superblock.t -> unit) -> unit

val class_totals : nclasses:int -> ((Superblock.t -> unit) -> unit) -> int array * int array * int array
(** Per size class, over the superblocks an iterator visits: superblock
    count, used blocks and block capacity. *)

val class_profile : nclasses:int -> ((Superblock.t -> unit) -> unit) -> (int * float) array
(** Per size class, [(superblock_count, fullness)] over the superblocks
    an iterator visits (a heap's {!iter}, or the global heap's members),
    where fullness is used blocks over capacity across that class's
    superblocks (0. when the class holds none). Plain reads — call under
    the heap's lock or at quiescence; feeds the observability heatmap. *)

val check : t -> unit
(** Full structural validation (group membership, accounting, per-
    superblock consistency). Raises [Failure] on corruption. *)
