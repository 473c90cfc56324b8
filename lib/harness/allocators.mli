(** The one registry of allocator factories every executable draws from
    (the benchmark harness, the trace tooling and the experiment suite
    used to carry their own copies of this list).

    [hoard] here is the paper-exact configuration ([front_end = 0]);
    [hoard-fe] is the same allocator with the lock-free front end turned
    on, registered separately so paper-fidelity sweeps never pick it up
    by accident. *)

val all : unit -> Alloc_intf.factory list
(** Every measurement factory, in presentation order. Checking
    configurations ({!extras}) are not included, so sweeps and tables
    stay on the eight comparison allocators. *)

val extras : unit -> Alloc_intf.factory list
(** Checking configurations ([hoard-san]); resolvable through {!find}. *)

val labels : unit -> string list

val find : string -> Alloc_intf.factory option
(** Lookup by [Alloc_intf.label], across {!all} and {!extras}. *)

val base_config : string -> Hoard_config.t option
(** The {!Hoard_config} a hoard-family label's factory registers with;
    [None] for the non-hoard comparison allocators. *)

val with_overrides :
  (Hoard_config.t -> Hoard_config.t) -> string -> Alloc_intf.factory option
(** [with_overrides f label] rebuilds the labelled hoard-family factory
    over [f base_config] with the label's own builder, so a wrapper
    such as [hoard-san]'s sanitizer survives the override — how the
    CLIs apply [--set knob=value] overrides on top of an
    [--allocator] choice. The rebuilt factory carries the overridden
    config's [vmem_backend], so a [--set vmem=] override reaches the
    machine. [None] when the label
    is unknown or has no config ({!base_config}). *)

val help : unit -> string
(** One "label  description" line per factory, for [--allocator help]. *)

val front_end_default : int
(** Cache capacity [hoard-fe] registers with. *)

val large_cache_default : int
(** Per-bucket large-cache capacity [hoard-gl] registers with. *)

val hoard_fe : ?front_end:int -> unit -> Alloc_intf.factory
(** A front-end-enabled hoard factory with an explicit capacity. *)

val hoard_san : ?quarantine:int -> unit -> Alloc_intf.factory
(** [hoard] wrapped in the heap {!Sanitizer} with a [quarantine]-block
    ring (default {!Sanitizer.default_quarantine}). *)

val hoard_gl : ?front_end:int -> ?large_cache:int -> unit -> Alloc_intf.factory
(** [hoard-fe] on the lock-free global heap (see
    {!Hoard_config.t.global} = [Lockfree]): heap 0's Dlist fullness
    groups replaced by the CAS-published {!Global_index}, so superblock
    transfer in either direction — and frees into global superblocks —
    never acquire the heap-0 lock; its remote frees ride the deferred
    lists (CAS push, exchange reclaim, no owner-lock fallback), and
    large objects the lock-free MPSC large-object cache
    (see {!Hoard_config.t.large_cache}). *)
