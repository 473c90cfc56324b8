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
    generic forms built over [malloc]. *)

val generic_realloc :
  Platform.t -> malloc:(int -> int) -> free:(int -> unit) -> usable_size:(int -> int) -> addr:int -> size:int -> int
(** The default [realloc] {!make} installs (see {!realloc}). *)

(** {2 Free-function forms}

    Thin wrappers delegating to the record members; the [Platform.t]
    argument is kept for signature stability with existing call sites. *)

val calloc : Platform.t -> Alloc_intf.t -> count:int -> size:int -> int
(** [calloc pf a ~count ~size] allocates [count * size] bytes and writes
    the whole block (the zeroing traffic of C's calloc). Raises
    [Invalid_argument] on non-positive arguments or overflow. *)

val realloc : Platform.t -> Alloc_intf.t -> addr:int -> size:int -> int
(** [realloc pf a ~addr ~size] returns a block of at least [size] bytes
    holding the old block's prefix. In-place when the current block
    already has room; otherwise allocates, copies (charged as reads and
    writes of the copied bytes) and frees the old block. *)

val aligned_alloc : Platform.t -> Alloc_intf.t -> align:int -> size:int -> int
(** [aligned_alloc pf a ~align ~size] returns a block whose address is a
    multiple of [align] (a power of two). Alignments up to 8 use the
    normal path; larger alignments are served page-aligned from the
    allocator's large-object path by over-rounding the request, trading
    memory for alignment, and are only supported up to the platform page
    size. *)
