(** Schedule explorer: bounded, systematic interleaving enumeration on
    top of {!Sim}'s controlled-scheduling mode.

    A *schedule* is the list of processors chosen at decision points
    (steps where several processors are runnable and a context switch is
    admissible: after a synchronisation step, or when the running
    processor blocked). Runs follow a schedule prefix and extend it with
    a deterministic non-preemptive default, so any failing run is
    replayable from its (minimized) decision list — the "seed" printed on
    violation. *)

type scenario = {
  sc_name : string;
  sc_describe : string;
  sc_nprocs : int;
  sc_build : Sim.t -> Platform.t -> (unit -> unit);
      (** Builds the scenario on a fresh machine (spawn threads, at most
          one per processor) and returns the post-run check; the check
          and any thread may raise to signal a violation. *)
}

(** [Chess]: exhaustive bounded-preemption enumeration (Musuvathi &
    Qadeer's iterative context bounding): all schedules reachable with at
    most [bound] preemptions, no pruning.

    [Sleep_dfs]: the same tree with sleep-set pruning — an explored
    choice sleeps for its later siblings until a dependent step (shared
    cache line with a write, or the same lock) wakes it. Sound only when
    threads communicate through simulated memory and locks; host-state
    side channels are invisible to footprints. *)
type strategy = Chess | Sleep_dfs

type failure = {
  f_schedule : int list;  (** minimized failing schedule *)
  f_message : string;  (** the violation (exception text) *)
  f_minimize_runs : int;  (** replays spent minimizing *)
}

type outcome = {
  o_runs : int;  (** interleavings executed (excluding minimization) *)
  o_truncated : bool;  (** stopped at [max_runs] before exhausting *)
  o_failure : failure option;
}

val explore :
  ?strategy:strategy ->
  ?bound:int ->
  ?max_runs:int ->
  scenario ->
  outcome
(** Enumerates admissible interleavings of the scenario up to [bound]
    preemptions (default 2), stopping at the first violation (returned
    minimized, in at most 300 replays) or after [max_runs] runs (default
    10_000; sets [o_truncated]). Each run may take up to 500,000 steps.
    Deterministic. *)

val replay : scenario -> schedule:int list -> (unit, string) result
(** One run under the given schedule (default policy past its end);
    [Error message] if it violates. *)

val schedule_to_string : int list -> string
(** Comma-separated, e.g. ["1,0,1"] — the replayable seed format. *)

val schedule_of_string : string -> int list
(** Inverse of {!schedule_to_string}. Raises [Failure] on bad input. *)
