(** Differential allocation oracle.

    Wraps an {!Alloc_intf.t} so that every operation is mirrored into a
    trivially-correct reference model: a live-set map keyed by block
    address and a serial ideal-allocator tracker of U (live requested and
    usable bytes, with peaks). The model asserts, synchronously with each
    operation:

    - no two live blocks overlap;
    - [usable_size] covers the requested size;
    - frees, reallocs and batch frees hit live blocks only;
    - [aligned_alloc] results are aligned;
    - the allocator's accounted live bytes never fall below the
      program's (caches and quarantines only ever add).

    It also tracks *actively-induced false sharing*: cache lines the
    allocator carved up for two different threads out of fresh memory
    (virgin addresses, never previously handed out). Sharing through
    reuse of recycled addresses is passively inherited and not counted,
    matching the paper's distinction.

    Violations raise {!Oracle_violation}. The oracle's state lives behind
    a host mutex — step-atomic on the simulator, so wrapping an allocator
    never perturbs the schedule being checked. *)

exception Oracle_violation of string

type t

val wrap : Platform.t -> Alloc_intf.t -> t * Alloc_intf.t
(** [wrap pf a] returns the oracle and the checked view of [a]. Hand the
    checked view to the workload; keep [t] for {!final_check}. All
    traffic must go through the wrapped view or the live set drifts. *)

val live_count : t -> int
val peak_usable_bytes : t -> int

val active_shared_lines : t -> int
(** Cache lines that handed virgin blocks to two different threads. Zero
    for an allocator that avoids actively-induced false sharing (fresh
    lines are never split across threads). *)

val check_blowup : t -> stats:Alloc_stats.snapshot -> bound:int -> unit
(** Asserts [peak_held <= bound], where [bound] is the paper's envelope
    computed from this oracle's {!peak_usable_bytes} as U
    ({!Hoard_config.blowup_envelope}). *)

val check_residency : t -> stats:Alloc_stats.snapshot -> unit
(** Asserts the memory-lifecycle invariant
    [resident_bytes <= held_bytes]. A region unmapped without its
    resident debit, or recommitted twice, violates it. *)

val final_check : ?expect_quiescent_equality:bool -> t -> stats:Alloc_stats.snapshot -> unit
(** End-of-run audit: internal accounting consistency, and live-byte
    agreement with the allocator — exact equality when
    [expect_quiescent_equality] (all caches flushed and the workload
    freed everything it did not intend to leak), a [>=] envelope
    otherwise. *)
