(** Assembling an {!Alloc_intf.t} and the generic implementations of its
    extended members.

    {!make} is how every allocator builds its public record: the
    implementation provides the core closures (malloc, free, usable_size,
    stats, check) and overrides only what it can do better; everything
    else gets the generic default. The defaults mirror how the paper's
    allocator exposes the full malloc interface on top of its core
    malloc/free: [calloc] zeroes through the platform (charging the
    stores), and [realloc] grows by allocate-copy-free — staying in place
    whenever the existing block's usable size already covers the request,
    which with geometric size classes absorbs most small growth steps. *)

val make :
  pf:Platform.t ->
  name:string ->
  owner:int ->
  large_threshold:int ->
  malloc:(int -> int) ->
  free:(int -> unit) ->
  usable_size:(int -> int) ->
  stats:(unit -> Alloc_stats.snapshot) ->
  check:(unit -> unit) ->
  ?malloc_batch:(int -> int -> int array) ->
  ?free_batch:(int array -> unit) ->
  ?flush:(unit -> unit) ->
  ?thread_exit:(unit -> unit) ->
  ?realloc:(addr:int -> size:int -> int) ->
  unit ->
  Alloc_intf.t
(** Defaults for the optional members: [malloc_batch] loops [malloc],
    [free_batch] loops [free], [flush] is a no-op, [thread_exit] falls
    back to [flush] (allocators without per-thread heap assignments have
    nothing further to release), [realloc] is the generic
    allocate-copy-free, and [calloc]/[aligned_alloc] are always the
    generic forms built over [malloc]. [calloc] writes the whole block
    (the zeroing traffic of C's calloc) and raises [Invalid_argument] on
    non-positive arguments or overflow. [aligned_alloc] serves alignments
    up to 8 from the normal path and larger ones, up to the platform page
    size, page-aligned from the large-object path by over-rounding the
    request. *)

val generic_realloc :
  Platform.t -> malloc:(int -> int) -> free:(int -> unit) -> usable_size:(int -> int) -> addr:int -> size:int -> int
(** The default [realloc] {!make} installs: in place when the current
    block already has room; otherwise allocate, copy (charged as reads and
    writes of the copied bytes) and free the old block. *)
