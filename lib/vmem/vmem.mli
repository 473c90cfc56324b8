(** Simulated OS virtual memory.

    Stands in for the [mmap]/[munmap]/[madvise] interface the paper's
    allocators sit on. Addresses are plain integers in a private simulated
    address space; no backing store is kept because the experiments only
    require address arithmetic, cache-line identity and accounting.

    The module is an accounting shell over a pluggable {!Vmem_backend}
    reuse policy (exact-size reuse — the compatibility default — a
    coalescing first-fit free list, or a binary buddy system). All
    policies share this surface: owner-tagged mapped/peak accounting,
    map/unmap counts, and an interval index serving {!is_mapped} and
    {!region_size} in O(log n).

    The allocator-visible quantities of the paper — memory *held* from the
    OS (the "A" of the blowup definition) and its high-water mark — are
    tracked here exactly, per owner tag, so fragmentation and blowup are
    measured rather than estimated.

    Regions additionally carry a *residency* bit: {!decommit} models
    [madvise(MADV_DONTNEED)] (address space retained, physical pages
    returned), {!commit} the re-population on next touch. {!mapped_bytes}
    counts address space held; {!resident_bytes} counts only committed
    pages — the number a production allocator's RSS story is about. *)

type t

type residency = Resident | Decommitted | Unmapped

val page_size : int
(** Bytes per page: 4096. *)

val create : ?backend:Vmem_backend.kind -> unit -> t
(** [create ()] makes an empty address space whose first address is
    [0x1000_0000]; [backend] (default [Exact]) selects the reuse
    policy. *)

val backend_kind : t -> Vmem_backend.kind

val map : t -> ?owner:int -> bytes:int -> align:int -> unit -> int
(** [map t ~bytes ~align ()] reserves [bytes] (rounded up to whole pages)
    at an address that is a multiple of [align] (a power of two, at least
    [page_size]). [owner] tags the region for per-allocator accounting
    (default 0). The region starts resident. Returns the base address. *)

val unmap : t -> addr:int -> unit
(** Releases a region previously returned by {!map}. Raises
    [Invalid_argument] on an address that is not a live region base. *)

val decommit : t -> addr:int -> unit
(** Marks the whole region based at [addr] non-resident (simulated
    [madvise(MADV_DONTNEED)]): the address range stays mapped and
    reusable, but its bytes leave {!resident_bytes}. Idempotent. Raises
    [Invalid_argument] if [addr] is not a live region base. *)

val commit : t -> addr:int -> unit
(** Re-populates a decommitted region (the fault-in on next touch).
    Idempotent; raises [Invalid_argument] on a non-region base. *)

val region_size : t -> addr:int -> int option
(** Size in bytes of the live region based at [addr], if any. O(log n). *)

val is_mapped : t -> addr:int -> bool
(** True when [addr] falls inside any live region. O(log n) via the
    interval index — independent of region sizes and counts of pages. *)

val residency : t -> addr:int -> residency
(** Residency of the page containing [addr]: [Resident] or
    [Decommitted] when inside a live region, [Unmapped] otherwise. *)

val is_resident : t -> addr:int -> bool

val mapped_bytes : t -> int
(** Total bytes currently held from the simulated OS (address space). *)

val peak_bytes : t -> int
(** High-water mark of {!mapped_bytes}. *)

val resident_bytes : t -> int
(** Bytes currently resident (mapped and committed) — the simulated RSS. *)

val peak_resident_bytes : t -> int

val address_space_bytes : t -> int
(** Width of the address range ever bump-allocated (frontier - base):
    mapped regions plus backend-held free bytes. Growth here with flat
    {!mapped_bytes} is external fragmentation the backend failed to
    recycle. *)

val mapped_bytes_of_owner : t -> int -> int

val peak_bytes_of_owner : t -> int -> int

val map_count : t -> int
(** Number of {!map} calls ever made (OS traffic). *)

val unmap_count : t -> int

val decommit_count : t -> int
(** Decommits that actually dropped pages (idempotent repeats excluded). *)

val commit_count : t -> int
(** Commits that re-populated a decommitted region ({!map}'s initial
    population is not counted). *)

val check : t -> unit
(** Deep validation: page alignment and disjointness of regions,
    mapped/resident/owner totals against the region set, backend
    structural invariants, and byte conservation
    (backend free + live = frontier - base). Raises [Failure]. *)
