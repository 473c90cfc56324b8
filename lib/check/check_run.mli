(** Oracle-checked workload runs.

    Wires {!Oracle.wrap} (and, for sanitizer subjects, {!Sanitizer} over
    the instance with its access checker on the platform) into the harness
    runner, then audits the run: quiescent live-byte equality after
    {!Hoard.flush_caches}, the paper's blowup envelope against the
    oracle's ideal-allocator peak U, and optionally zero actively-induced
    false sharing. *)

type subject = {
  s_label : string;
  s_describe : string;
  s_config : Hoard_config.t option;
      (** [Some]: a hoard configuration run with a retained handle.
          [None]: a registry allocator (flush/blowup checks skipped). *)
  s_quarantine : int option;
      (** [Some q]: the {!Sanitizer} wraps the instance with a [q]-block
          quarantine. *)
}

val hoard_subjects : subject list
(** [hoard], [hoard-fe], [hoard-gl-san], [hoard-san], [hoard-fe-san],
    [hoard-ff-san]. *)

val find_subject : string -> subject option
(** The hoard subjects, then any {!Allocators} registry label. *)

val subject_help : unit -> string

type report = {
  c_workload : string;
  c_subject : string;
  c_result : Runner.result;
  c_mallocs : int;
  c_peak_usable : int;
  c_shared_lines : int;
  c_quarantine_peak : int;
  c_envelope : int option;
      (** the {!Hoard_config.blowup_envelope} the run was held to, with U =
          the oracle's peak usable bytes; [None] when blowup is not
          checked *)
}

val run_oracle :
  ?fuzz:int ->
  ?nprocs:int ->
  ?check_blowup:bool ->
  ?expect_no_false_sharing:bool ->
  ?overrides:(Hoard_config.t -> Hoard_config.t) ->
  workload:Workload_intf.t ->
  subject:string ->
  unit ->
  report
(** One oracle-checked run ([nprocs] defaults to 4). Raises
    {!Oracle.Oracle_violation}, {!Sanitizer.Violation} or the
    allocator's own check failures on any discrepancy. [fuzz] seeds the
    schedule fuzzer for interleaving variety; [overrides] is applied to
    the subject's config when it has one (how the CLI threads
    [--set knob=value] through), and the blowup envelope is computed
    from the overridden config. *)

val quick_workloads : unit -> Workload_intf.t list
(** Quick-scale paper workloads for CI sweeps. *)

val find_workload : string -> Workload_intf.t option

val workload_help : unit -> string
