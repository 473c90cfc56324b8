(** Allocation traces: a recorded or generated sequence of malloc/free
    operations with logical object ids, replayable against any allocator.

    Traces serve three purposes in the reproduction: fragmentation studies
    on identical operation sequences, differential testing (every
    allocator must serve the same trace correctly), and failure injection
    (replay up to an operation, then inspect). The textual format is one
    operation per line: ["m <id> <size> <tid>"] or ["f <id> <tid>"]. *)

type op =
  | Malloc of { id : int; size : int; tid : int }
  | Free of { id : int; tid : int }

type t

val create : unit -> t

val add : t -> op -> unit

val length : t -> int

val get : t -> int -> op

val iter : (op -> unit) -> t -> unit

val of_list : op list -> t

val to_list : t -> op list

(** {2 Validation} *)

val validate : t -> (unit, string) result
(** Checks well-formedness: ids malloc'd before freed, no double malloc of
    a live id, no double free, positive sizes. *)

val live_at_end : t -> int list
(** Ids still live after the whole trace (sorted). *)

val max_live_bytes : t -> int
(** The trace's inherent peak memory ("U" for a perfect allocator, in
    requested bytes). *)

(** {2 Generation} *)

type size_dist =
  | Uniform of int * int
  | Geometric of { min_size : int; mean : float; max_size : int }
  | Mixed of (float * size_dist) list  (** weighted mixture *)

val generate :
  ?seed:int ->
  ops:int ->
  threads:int ->
  live_target:int ->
  size_dist:size_dist ->
  unit ->
  t
(** Random trace: allocation probability self-regulates around
    [live_target] live objects per thread; frees pick random live objects
    of the same thread. Always well-formed; ends by freeing everything. *)

(** {2 Serialisation} *)

val to_string : t -> string

val of_string : string -> (t, string) result

(** {2 Replay} *)

type replay_stats = {
  replayed_ops : int;
  replay_peak_live : int;  (** peak requested bytes live during replay *)
}

val replay : t -> Alloc_intf.t -> replay_stats
(** Runs the trace against an allocator (single-threaded; thread ids are
    ignored). Raises if the allocator misbehaves (via its own checks). *)

val replay_sim : t -> Sim.t -> Alloc_intf.t -> nthreads:int -> unit
(** Multi-threaded replay on the simulator: operations are partitioned by
    [tid mod nthreads]; cross-thread frees are routed to the freeing
    thread recorded in the trace. Threads synchronise per 1024-op window
    so that frees never run ahead of their mallocs. Call [Sim.run]
    afterwards. *)

val workload : t -> Workload_intf.t
(** The trace as a workload named ["trace"]: {!replay_sim} with one
    simulated thread per [nthreads]; [total_ops] is {!length}. *)
