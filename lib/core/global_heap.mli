(** The global heap (the paper's heap 0): per-processor heaps give it
    superblocks that crossed the emptiness threshold (and a retiring
    thread's whole heap), take superblocks back from it before mapping
    fresh memory, and it returns its surplus empty superblocks to the OS.

    One signature, two implementations, chosen by [cfg.global] in
    {!create}:
    - [Locked] (the paper's): heap 0 is a {!Heap.t} like the others —
      Dlist fullness groups behind its lock, with a remote-free channel
      that is drained before every refill from it. A free into a global
      superblock locks heap 0 like any owner.
    - [Lockfree]: heap 0 has no record. Its superblocks live in the
      CAS-published {!Global_index}; transfers are index publishes and
      claims. A free into a global superblock parks the block on the
      freeing thread's heap's shard of the global-free list (one CAS, no
      lock), and that heap's refills and flushes complete the frees
      through the index's Busy handshake — or the parking thread, once
      the blocks on the shard pass [8 × sb_size] bytes.

    [h] below is always the calling thread's heap, whose lock domain
    records the stats and events; [spill] collects blocks the caller must
    route through its locked path after releasing [h]'s lock. *)

module type S = sig
  type t

  val heap0 : t -> Heap.t option
  (** Heap 0's record, which blocks of global superblocks are freed into
      and forwarded to; [None] when frees into global superblocks
      {!park} instead. *)

  val take : t -> Heap.t -> sclass:int -> spill:(Superblock.t * int) list ref -> Superblock.t option
  (** Refill: complete the frees pending on global superblocks, then
      claim the fullest superblock usable for [sclass] (a partial one of
      the class, else an empty one), owned by [h] before anyone else can
      see it. Caller holds [h]'s lock. *)

  val put : t -> Heap.t -> Superblock.t list -> unit
  (** Give superblocks [h] holds privately (a trim's victim, a retiring
      heap's orphans) to the global heap, then release its surplus
      empties. With [h] heap 0's own record (after a free into a global
      superblock, its lock held) only the release runs. Caller holds
      [h]'s lock; [put t h []] from a per-processor heap does nothing. *)

  val park :
    t -> Heap.t -> (Superblock.t * int * int) list -> spill:(Superblock.t * int) list ref -> locked:bool -> unit
  (** Park frees of blocks in global superblocks (custody-marked, still
      charged), each with the link its first word holds
      ({!Deferred_list.push_many}), on [h]'s shard, then complete the
      shard if its blocks have passed [8 × sb_size] bytes — taking [h]'s
      lock for that
      unless [locked]. Only called when {!heap0} is [None], except with
      [[]] after a drain. *)

  val complete : t -> Heap.t -> spill:(Superblock.t * int) list ref -> unit
  (** A flush's share: complete [h]'s shard and release surplus empties.
      Caller holds [h]'s lock. *)

  (** {2 Quiescent — no platform locks, costs or events} *)

  val parked : t -> Heap.t -> int
  (** Blocks parked on [h]'s shard; always 0 when {!heap0} is a record. *)

  val iter_parked : t -> Heap.t -> (Superblock.t -> int -> unit) -> unit
  (** Every block parked on [h]'s shard, most recently parked first,
      without taking it. *)

  val q_take : t -> Heap.t -> (Superblock.t * int) list
  (** Take every block parked on [h]'s shard, most recently parked
      first. *)

  val q_free : t -> Superblock.t -> addr:int -> unit
  (** Free one block of a global superblock. *)

  val q_put : t -> Superblock.t -> unit
  (** {!put} one unlinked superblock, without the release. *)

  val info : t -> Heap.info

  val iter_members : t -> (Superblock.t -> unit) -> unit

  val check : t -> unit
  (** Structural validation of heap 0 — its core and list, or the index,
      every member owned by heap 0, registered and resident, and every
      shard's blocks still custody-marked. Raises [Failure]. *)
end

include S

val create :
  Platform.t ->
  Hoard_config.t ->
  classes:Size_class.t ->
  stats:Alloc_stats.t ->
  reg:Sb_registry.t ->
  ?obs:Obs.t ->
  heaps:Heap.t array ->
  unit ->
  t
(** The implementation [cfg.global] names, over the per-processor
    [heaps]. Released superblocks are unregistered from [reg] and
    unmapped. *)
