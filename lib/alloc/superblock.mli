(** Superblocks: fixed-size (S-byte) chunks carved into equal blocks of one
    size class.

    The first [header_bytes] of a superblock model its header; allocators
    touch that range through the platform on every operation so metadata
    coherence traffic is measured. Blocks are handed out bump-first, then
    from a LIFO free list (same order as the paper's implementation, which
    improves locality). An allocation bitmap detects double frees and
    foreign pointers.

    A fully empty superblock may be {!reinit}ialised to a different size
    class — this is how the global heap recycles superblocks across
    classes. *)

type t

val header_bytes : int
(** Reserved at the base of every superblock (64: one cache line). *)

val create : base:int -> sb_size:int -> sclass:int -> block_size:int -> t
(** [base] must be [sb_size]-aligned; [block_size] in
    [\[8, sb_size - header_bytes\]]. *)

val base : t -> int

val touch_header : Platform.t -> t -> unit
(** The simulated write of the header's first 16 bytes (owner, free-list
    head, counts). Every simulated header write goes through this call. *)

val sb_size : t -> int

val block_size : t -> int

val sclass : t -> int

val n_blocks : t -> int
(** Capacity in blocks. *)

val used : t -> int
(** Blocks currently allocated. *)

val fullness : t -> float
(** [used / n_blocks] in [\[0, 1\]]. *)

val is_empty : t -> bool

val is_full : t -> bool

val owner : t -> int
(** Id of the heap currently owning this superblock. *)

val set_owner : t -> int -> unit

val alloc_block : t -> int
(** Address of a fresh block. Raises [Failure] when full. *)

val free_block : t -> int -> unit
(** Returns the block at the given address. Raises [Invalid_argument] on
    an address outside this superblock or not at a block boundary, and
    [Failure] on double free. *)

val contains : t -> int -> bool
(** Whether an address lies within this superblock's block area. *)

val is_block_live : t -> int -> bool
(** Whether the block at this address is currently allocated. *)

(** {2 Front-end custody state}

    A freed block absorbed by a thread's front-end cache (or parked on a
    remote-free queue) stays bitmap-live; the custody bit is the shared,
    O(1) record that it is no longer the program's — the state the
    double-free check consults, which a per-thread cache-membership scan
    cannot provide when the block is cached by {e another} thread. The
    bit is owned by whichever thread currently holds the block (same
    single-byte-store discipline as the [live] bitmap) and must be
    cleared before the block re-enters the program (cache hit) or its
    heap core (drain), preserving cached ⊆ live. *)

val mark_cached : t -> int -> unit

val clear_cached : t -> int -> unit

val is_block_cached : t -> int -> bool

val check_in_custody : what:string -> t -> int -> unit
(** Fail (naming the block as a [what] block) unless the block at this
    address is bitmap-live and custody-marked, as every block waiting in
    a remote-free channel must be. For quiescent checks. *)

(** Classification of an arbitrary address within a superblock, for the
    heap sanitizer: [Header] is the metadata line (a workload must not
    touch it), [Block] carries the containing block's start
    address, index and liveness (so overflow past [b_start + block_size]
    and access to a dead block are distinguishable), [Tail_waste] is the
    slack past the last whole block. *)
type region =
  | Header
  | Block of { b_start : int; b_index : int; b_live : bool }
  | Tail_waste

val locate : t -> int -> region
(** Raises [Invalid_argument] if the address is outside
    [\[base, base + sb_size)]. *)

val reinit : t -> sclass:int -> block_size:int -> unit
(** Re-dedicates an empty superblock to another size class. Raises
    [Failure] if any block is live. *)

(** {2 Fullness-group bookkeeping (used by {!Heap_core})} *)

val gslot : t -> int
(** Slot id in the lock-free global index: assigned once on first
    publication there, stable across reinit, -1 before. *)

val set_gslot : t -> int -> unit

val group_index : t -> int
(** Current fullness-group slot, or -1 when unlinked. *)

val set_group : t -> int -> t Dlist.node option -> unit

val group_node : t -> t Dlist.node option

val check : t -> unit
(** Internal consistency: counts, free list and bitmap agree. Raises
    [Failure] otherwise. *)
