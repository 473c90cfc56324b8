(** The large-object path shared by every allocator implementation:
    requests above the size threshold bypass the superblock machinery
    and are served directly from the OS, page-rounded, as in the paper.

    All operations that touch the object table ({!malloc}, {!try_free},
    {!usable_size}) acquire the internal "large" lock, so the module is
    safe to call concurrently on the host platform. *)

type t

val create :
  ?shard:int ->
  ?ring:Event_ring.t ->
  ?cache:Large_cache.t ->
  Platform.t ->
  owner:int ->
  stats:Alloc_stats.t ->
  threshold:int ->
  t
(** [shard] is the index of the stats shard charged for large
    malloc/free events (the shard's lock domain is this module's internal
    lock); defaults to the last shard of [stats]. Map/unmap accounting
    goes through [stats]'s atomic OS-map path. [ring], when given, is
    attached to the shard and records a [Large_map]/[Large_unmap] event
    per OS transaction under the same lock; a park's [Decommit] and
    [Large_unmap], which happen outside the lock, take it briefly to be
    recorded, and only when a ring is attached.

    [cache], when given, fronts the OS with a lock-free {!Large_cache}:
    a free of a cacheable region parks it (decommit, then one CAS)
    instead of unmapping; a later malloc of the same page count takes it
    back with pop → commit instead of a map. The take/park protocol runs
    outside the table lock; only the table mutation and its counters
    stay under it. *)

val is_large : t -> int -> bool
(** Whether a request of this size takes the large path. *)

val malloc : t -> int -> int
(** A page-rounded region for a request of the given (positive) size:
    a cached one when the cache holds that page count, else fresh pages. *)

val try_free : t -> addr:int -> bool
(** [true] if [addr] was a live large object (now freed); [false] leaves
    everything untouched (the caller then tries its superblock path). *)

val usable_size : t -> addr:int -> int option

val live_count : t -> int
(** Live large objects; exact at quiescence. *)

val live_bytes : t -> int

val cache : t -> Large_cache.t option
