(** The heap sanitizer: a checking layer composed over a {!Hoard}
    instance, the way [Oracle.wrap] interposes on allocators from
    outside. Its allocator runs Hoard's malloc paths and checks the rest:

    - a free is validated (double free, interior pointer, superblock
      header or tail-waste address, foreign pointer), poisoned with a
      whole-block write, and held in a FIFO quarantine; only the block
      the ring evicts takes Hoard's free. Quarantined blocks stay
      bitmap-live, so stats' free counters lag by at most the ring size
      until a [flush], a [thread_exit] or {!flush_caches};
    - [usable_size] and [realloc] of a quarantined or dead block are
      reported;
    - {!access_check} catches touches of headers, tail waste, dead or
      quarantined blocks, and spans past a block's end.

    Large objects take Hoard's paths unchecked. *)

exception Violation of string
(** The message starts ["heap sanitizer: <what> at 0x<addr>"], then names
    the owning superblock (base, class, block size, owner heap) and, when
    tracing is on, that heap's last six event-ring entries. *)

type t

val default_quarantine : int
(** 32 blocks: the ring of [hoard-san] and the [*-san] check subjects. *)

val create : ?quarantine:int -> Platform.t -> Hoard.t -> t
(** Wraps an instance built on the same platform. [quarantine] (default
    {!default_quarantine}) must be non-negative; 0 checks frees but
    recycles at once. *)

val allocator : t -> Alloc_intf.t
(** The checked allocator; raises {!Violation} on an invalid operation. *)

val access_check : t -> addr:int -> len:int -> write:bool -> unit
(** Install on the {e workload's} view of the platform (wrap
    [Platform.read]/[write]); the allocator keeps the unchecked one, as
    it writes headers and free-list links legitimately. Addresses
    outside every superblock are ignored. *)

val quarantine_length : t -> int

val flush_caches : t -> unit
(** Quiescent-only: completes every quarantined free
    ({!Hoard.free_quiescent}), then {!Hoard.flush_caches}. *)
