(** Per-lock-domain event rings: the allocator's internal events
    (superblock transfers, emptiness crossings, remote frees, OS calls,
    contended lock acquisitions) captured as they happen.

    Concurrency contract — the same as an [Alloc_stats] shard: a ring
    belongs to one lock domain (a heap, the large path, the simulator),
    and {!record} must only be called while holding that domain's lock.
    Recording is a handful of plain int stores into preallocated arrays
    and never allocates, so a ring on the hot path costs a few cache
    lines, not a traversal.

    Rings have fixed capacity; when full they wrap, overwriting the oldest
    events. Per-kind totals ({!recorded_kind}) are maintained separately
    and stay exact even after wrap-around, which is what the event-count
    invariants (ring totals == stats counters) are checked against. An
    allocator's rings are written only through [Alloc_stats.note] and
    [Alloc_stats.record], which count and record in one call. *)

(** The event taxonomy (see docs/observability.md). *)
type kind =
  | Sb_map  (** fresh superblock mapped from the OS; [arg] = bytes *)
  | Sb_unmap  (** empty superblock returned to the OS; [arg] = bytes *)
  | Sb_from_global  (** superblock transfer, global heap -> [heap] *)
  | Sb_to_global  (** superblock transfer, [heap] -> global heap *)
  | Emptiness_cross  (** [heap] crossed the emptiness threshold; [arg] = u bytes *)
  | Remote_free  (** a free into [heap] by a thread of another heap *)
  | Large_map  (** large-object allocation mapped; [arg] = bytes *)
  | Large_unmap  (** large-object free unmapped; [arg] = bytes *)
  | Lock_acquire  (** contended lock acquisition; [arg] = spin count *)
  | Cache_hit  (** malloc served from the thread's front-end cache *)
  | Cache_flush  (** front-end cache flushed blocks; [arg] = block count *)
  | Remote_enqueue  (** evicted blocks pushed onto [heap]'s remote-free queue; [arg] = block count *)
  | Remote_drain  (** [heap] drained its remote-free queue; [arg] = block count *)
  | Decommit  (** region's pages returned to the OS, address space kept; [arg] = bytes *)
  | Recommit  (** decommitted region re-populated for reuse; [arg] = bytes *)
  | Remote_forward  (** drain re-forwarded a migrated block to its new owner; [arg] = addr *)
  | Req_arrival  (** server-mix request arrived (scheduled or issued); [arg] = request id *)
  | Req_done  (** server-mix request completed; [arg] = latency in cycles *)
  | Large_cache_hit  (** large allocation served by cache take → commit; [arg] = bytes *)
  | Deferred_enqueue  (** block CAS-pushed onto [heap]'s deferred free list; [arg] = addr *)
  | Deferred_reclaim  (** [heap] exchanged its deferred list empty; [arg] = block count *)
  | Orphan_adopt  (** an orphaned superblock adopted on a thread's exit path *)
  | Global_push  (** superblock published to the lock-free global index; [arg] = base *)
  | Global_pop  (** superblock acquired from the lock-free global index; [arg] = base *)
  | Global_revalidate
      (** a popped membership entry met a Busy member and was repushed;
          [arg] = base *)
  | Global_busy_miss
      (** an acquire from the lock-free global index met a Busy entry and
          fell through to the empties or the OS; [arg] = the Busy
          superblock's base *)

val all_kinds : kind list

val kind_name : kind -> string
(** Stable snake_case name used in exports. *)

val nkinds : int

val kind_index : kind -> int
(** A kind's position in {!all_kinds}, in [\[0, nkinds)]: the index of
    its slot in a per-kind count array. *)

type event = {
  at : int;  (** timestamp: simulated cycles or host logical time *)
  kind : kind;
  who : int;  (** executing processor *)
  heap : int;  (** owning heap id; -1 when not heap-scoped *)
  sclass : int;  (** size class; -1 when not class-scoped *)
  arg : int;  (** kind-specific payload *)
}

type t

val create : capacity:int -> t

val capacity : t -> int

val record : t -> at:int -> kind:kind -> who:int -> heap:int -> sclass:int -> arg:int -> unit
(** Call under the ring's domain lock. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val dropped : t -> int
(** Events overwritten by wrap-around: [max 0 (recorded - capacity)]. *)

val retained : t -> int

val recorded_kind : t -> kind -> int
(** Exact per-kind total, unaffected by wrap-around. *)

val iter : t -> (event -> unit) -> unit
(** Retained events, oldest first. Call at quiescence. *)

val to_list : t -> event list
