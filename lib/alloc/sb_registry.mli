(** O(1) pointer-to-superblock resolution, safe under real parallelism.

    Superblocks are S-aligned in the address space, so the superblock
    containing an address is found by indexing [addr / S] — the same trick
    the paper's implementation uses to make [free] constant-time. One
    registry is shared by all heaps of an allocator.

    The registry is lock-striped: slots spread over a power-of-two number
    of stripes, each guarded by its own platform lock. Only the writers
    ({!register}, {!unregister} — rare, superblock-granularity events)
    take the stripe lock; every stripe publishes its slot map through an
    [Atomic], so {!lookup} on the [free] hot path is wait-free and
    data-race-free without serialising concurrent processors. *)

type t

val create : Platform.t -> sb_size:int -> t
(** 64 stripes; [sb_size] must be a positive power of two. The platform
    provides the per-stripe locks. *)

val sb_size : t -> int

val register : t -> Superblock.t -> unit
(** Takes the stripe lock; call from allocator code paths (on the
    simulated platform, from inside a simulated thread). *)

val unregister : t -> Superblock.t -> unit
(** Called when a superblock is returned to the OS. Takes the stripe
    lock. *)

val lookup : t -> addr:int -> Superblock.t option
(** The live superblock whose span contains [addr], if any. Wait-free:
    reads the stripe's atomically-published map, never blocks. *)

val count : t -> int
(** Lock-free; exact when writers are quiescent. *)

val iter : t -> (Superblock.t -> unit) -> unit
(** Iterates over registered superblocks in unspecified order, against an
    atomically-consistent per-stripe view. Lock-free. *)
