(** Lock-free MPSC cache of large-object regions in front of
    {!Locked_large}'s OS path: freed regions park decommitted-but-mapped
    in bounded per-page-count {!Lockfree} buckets; an allocation of the
    same page count takes one back with pop → commit instead of a map.
    Decommit happens before the publishing push and commit after the
    privatising pop, so no schedule can observe a parked resident
    region. A bucket's pool is built on the bucket's first {!park} or
    {!take}, at no simulated cost; racing first users build one pool. *)

type t

val create :
  Platform.t ->
  name:string ->
  cap:int ->
  ?aba_tag:bool ->
  ?on_retry:(unit -> unit) ->
  unit ->
  t
(** [cap >= 1] bounds each bucket. 16 buckets cache regions of 1..16
    pages; larger regions are uncacheable. Creates no simulated object:
    bucket [k]'s atomics ("<name>.b<k>.next<i>", ".free", ".head", as
    {!Lockfree.create} names them) are made when the bucket is first
    used.
    [aba_tag:false] plants the ["large-cache-no-aba"] mutant (frozen
    Treiber tags on every bucket); [on_retry] fires on each failed
    CAS. *)

val park : t -> addr:int -> mapped:int -> [ `Parked | `Bounced | `Uncacheable ]
(** Park a privately-owned region of exactly [mapped] bytes.
    [`Parked]: the cache owns it (decommitted). [`Bounced]: bucket
    full — the region is still the caller's, now decommitted, and must
    be unmapped. [`Uncacheable]: wrong size; the caller proceeds as
    without a cache (no decommit happened). *)

val take : t -> mapped:int -> int option
(** Pop a parked region of exactly [mapped] bytes and commit its pages.
    [None] on an empty bucket or uncacheable size. *)

val length : t -> int
(** Regions parked across all buckets (exact at quiescence). *)

val parks : t -> int

val iter : t -> (addr:int -> mapped:int -> unit) -> unit
(** Quiescent-only walk of every parked region. *)

val check : t -> unit
(** Quiescent structural + residency check: buckets within capacity,
    stacks uncorrupted, every parked region a mapped region of exactly
    its bucket's page count, and decommitted.

    [length], [parks], [iter] and [check] visit only the buckets built
    so far and build none. *)
