(** The [--set knob=value] Cmdliner option shared by the three CLIs,
    backed by the {!Hoard_config} knob registry. *)

val set_opt : string list Cmdliner.Term.t
(** Repeatable [--set KNOB=VALUE]; empty when not given. *)

val positive : int Cmdliner.Arg.conv
(** An integer [>= 1]; anything else is a usage error. *)

val non_negative : int Cmdliner.Arg.conv
(** An integer [>= 0]; anything else is a usage error. *)

val nprocs : int Cmdliner.Arg.conv
(** One processor count, an integer [>= 1]; anything else is a usage
    error. *)

val procs : int list Cmdliner.Arg.conv
(** Comma-separated processor counts such as [1,2,4], each an integer
    [>= 1]; anything else is a usage error. *)

val apply : Hoard_config.t -> string list -> Hoard_config.t
(** Left fold of {!Hoard_config.set} over the overrides; prints the knob
    registry and exits 1 on an unknown knob or malformed value. *)
