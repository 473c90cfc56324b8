(** The [--set knob=value] Cmdliner option shared by the three CLIs,
    backed by the {!Hoard_config} knob registry. *)

val set_opt : string list Cmdliner.Term.t
(** Repeatable [--set KNOB=VALUE]; empty when not given. *)

val knob_flag : knob:string -> string list -> doc:string -> string list Cmdliner.Term.t
(** [knob_flag ~knob names ~doc] is an optional flag standing for one
    registry knob: [[knob ^ "=" ^ value]] when given, [[]] otherwise.
    Its value is not parsed here; {!config} and {!apply} check it
    through the registry like any [--set]. *)

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

val resolve : Hoard_config.t -> string list -> (Hoard_config.t, string) result
(** Left fold of {!Hoard_config.set} over the overrides; [Error] carries
    the registry's message for an unknown knob or a malformed or
    out-of-range value, followed by the knob list. *)

val config : Hoard_config.t -> string list Cmdliner.Term.t -> Hoard_config.t Cmdliner.Term.t
(** [config base overrides] is {!resolve} as a term: a bad override is a
    usage error (exit 124). For commands whose base is fixed. *)

val apply : Hoard_config.t -> string list -> Hoard_config.t
(** {!resolve} for a base known only at run time (an allocator's
    registered config): prints the message and exits 124 on [Error]. *)

val read_file : string -> (string, string) result
(** The whole file, or [Error "path: reason"] (missing, a directory, no permission). *)

val write_file : string -> string -> (unit, string) result
(** Creates or truncates the file with the given contents, or [Error "path: reason"]. *)

val or_exit : ('a, string) result -> 'a
(** The [Ok] value; on [Error msg], prints [msg] to stderr and exits 1. *)
