(** Deterministic discrete-event multiprocessor simulator.

    Threads are ordinary OCaml closures that interact with the machine
    through effects ({!work}, {!read}, {!write}, lock operations, …). A
    scheduler resumes, at every step, one thread of the processor with the
    smallest virtual clock (ties broken by processor id), so a run is a
    pure function of its inputs — speedup curves are bit-reproducible on
    any host.

    Costs: each primitive advances the executing processor's clock
    according to {!Cost_model.t}; loads and stores are classified by the
    directory-based {!Cache} simulator (hit / cold miss / coherence miss /
    invalidations) and charged accordingly. Locks are spin locks: a failed
    acquisition re-reads the lock word and charges a spin-retry, so lock
    contention appears as both cycles and coherence traffic.

    This is the substrate substituting for the paper's 14-processor Sun
    Enterprise: scalability is measured in simulated cycles rather than
    wall-clock seconds. *)

type t

type lock

(** Lock discipline for every lock of a machine: plain test-and-set spin
    locks, or FIFO ticket locks (fair, slightly more coherence traffic). *)
type lock_kind = Spin | Ticket

type barrier

exception Deadlock of string
(** Raised by {!run} when live threads remain but none can make progress.
    The message names every stuck thread: for lock waiters, the lock and
    its current holder's thread id and processor; for barrier waiters,
    the barrier. Detected both when all run queues drain (threads parked
    on barriers) and when the machine degenerates into pure lock spinning
    with no holder able to run (spin-lock deadlock, e.g. AB–BA). *)

type step_report = {
  sr_step : int;  (** global step index of the reported step *)
  sr_proc : int;  (** processor that executed it *)
  sr_tid : int;  (** thread that executed it *)
  sr_sync : string option;  (** lock name or ["barrier"] if it was a sync op *)
  sr_spin : bool;  (** it was a failed spin retry *)
  sr_reads : int list;  (** cache lines read (line indices) *)
  sr_writes : int list;  (** cache lines written *)
}
(** What the last scheduler step did. Fed to a controlling strategy so
    model checkers can recognise synchronisation points (preemption
    points) and compute dependence between steps (conflicting lines). *)

type choice = {
  ch_step : int;  (** index the chosen step will have *)
  ch_runnable : int list;  (** processors that can make progress, ascending *)
  ch_spinning : int list;
      (** processors whose thread would only burn a failed lock-acquire
          retry; not legal choices (pure no-ops that would make
          exploration trees infinite) *)
  ch_last : step_report option;  (** [None] before the first step *)
}

val create :
  ?cost:Cost_model.t ->
  ?lock_kind:lock_kind ->
  ?fuzz_schedule:int ->
  ?control:(choice -> int) ->
  ?line_size:int ->
  ?cache_capacity_lines:int ->
  ?topology:int * int ->
  ?page_size:int ->
  ?vmem_backend:Vmem_backend.kind ->
  nprocs:int ->
  unit ->
  t
(** [cache_capacity_lines] bounds each processor's cache (LRU); by default
    caches are infinite (see {!Cache.create}).

    [topology (sockets, cores_per_socket)] builds the two-tier machine:
    processor [p] sits on socket [p / cores_per_socket], which is also
    its memory node, so remote-socket miss service and cross-socket
    invalidations pay [cross_node] {e plus} the distinctly larger
    [cross_socket] surcharge while intra-socket coherence pays neither.
    [sockets * cores_per_socket] must equal [nprocs]. Without it the
    machine is flat: one node, no [cross_node] or [cross_socket]
    surcharge.

    [fuzz_schedule seed] replaces min-clock scheduling with a seeded
    random choice among runnable processors: a schedule *fuzzer* for
    exploring interleavings in correctness tests. Runs remain
    deterministic per seed, but reported cycles are not meaningful
    timing.

    [control strategy] replaces min-clock scheduling with a pluggable
    strategy consulted at every step: it receives the current {!choice}
    (runnable processors plus a {!step_report} of the previous step) and
    must return a member of [ch_runnable]. This is the hook the
    [Check.Explorer] model checker drives. Controlled runs require at
    most one thread per processor ({!run} checks), so a processor id
    identifies a thread. Mutually exclusive with [fuzz_schedule]; cycles
    are not meaningful timing. *)

val nprocs : t -> int

val topology : t -> Topology.t option
(** The two-tier topology the machine was created with, if any. *)

val cache : t -> Cache.t

val vmem : t -> Vmem.t

val spawn : t -> ?proc:int -> (unit -> unit) -> int
(** [spawn t fn] registers a thread to run when {!run} is called; returns
    its thread id. Threads are placed round-robin on processors unless
    [proc] pins them. Must be called before {!run}. *)

val spawn_at : t -> at:int -> ?proc:int -> (unit -> unit) -> int
(** [spawn_at t ~at fn] registers a thread that joins its processor's run
    queue once the machine's virtual time reaches [at] (an idle machine
    jumps forward to it). Unlike {!spawn} it may also be called from
    inside a running thread, so workloads can create and retire thread
    populations mid-run (churn). A thread exits by returning from its
    body; {!live_threads} and {!peak_live_threads} track the resulting
    population. Placement and tid assignment follow {!spawn}. *)

val live_threads : t -> int
(** Threads started (or spawned for time 0) and not yet finished. *)

val peak_live_threads : t -> int
(** High-water mark of {!live_threads}: the P in the blowup envelope
    [O(U + P)] under thread churn — peak concurrently-live threads, not
    the total ever created. *)

val run : ?max_steps:int -> t -> unit
(** Executes all spawned threads to completion. [max_steps] (default
    [2_000_000_000]) bounds scheduler steps as a livelock backstop.
    Raises {!Deadlock} if every remaining thread is blocked. *)

val total_cycles : t -> int
(** Completion time: the maximum processor clock. *)

(** {2 Primitives — call only from inside a simulated thread} *)

val work : int -> unit

val read : addr:int -> len:int -> unit

val write : addr:int -> len:int -> unit

val self_proc : unit -> int

val self_tid : unit -> int

(** {2 Synchronisation} *)

val new_lock : t -> string -> lock
(** Creates a spin lock. Its lock word occupies a private cache line. May
    be called from inside or outside threads. *)

val acquire : lock -> unit

val release : lock -> unit
(** Raises [Invalid_argument] if the calling thread does not hold it. *)

val lock_acquisitions : lock -> int

val lock_stats : t -> (string * int * int) list
(** [(name, acquisitions, spins)] for every lock, in creation order. *)

val set_lock_hooks :
  t ->
  ?on_acquire:(name:string -> proc:int -> spins:int -> at:int -> unit) ->
  ?on_release:(name:string -> proc:int -> acquired_at:int -> at:int -> unit) ->
  unit ->
  unit
(** Observability hooks, invoked by the scheduler (host code, outside any
    simulated thread) and charging no simulated cycles, so installing them
    cannot change a run's timing. [on_acquire] fires after each successful
    lock acquisition with the number of failed (spinning) attempts this
    acquisition cost; [on_release] fires on release with the holder's
    clock at acquisition, yielding the lock-hold span
    [acquired_at..at]. Call before {!run}; omitted hooks are cleared. *)

val now : unit -> int
(** The executing processor's current clock, from inside a thread. *)

val new_barrier : t -> parties:int -> barrier

val barrier_wait : barrier -> unit

(** {2 Atomics}

    A simulated atomic machine word for lock-free protocols. Each
    operation is step-atomic — the whole read-modify-write happens inside
    one scheduler step, with preemption points before and after — charges
    {!Cost_model.t.atomic_op} plus the coherence traffic of touching the
    word's private cache line, and is visible to a controlling strategy
    as a sync point carrying the atomic's name (like a lock). *)

type atom

val new_atomic : t -> string -> int -> atom
(** [new_atomic t name init]. May be called from inside or outside
    threads (charges nothing). *)

val atomic_load : atom -> int

val atomic_store : atom -> int -> unit

val atomic_cas : atom -> expected:int -> desired:int -> bool
(** One hardware CAS: true iff the word held [expected] and now holds
    [desired]. *)

val atomic_faa : atom -> int -> int
(** Fetch-and-add; returns the value before the addition. *)

(** {2 Platform} *)

val platform : t -> Platform.t
(** The {!Platform.t} exposing this machine to allocators and workloads.
    Its [page_map]/[page_unmap] charge OS-call costs and account into the
    simulator's {!Vmem}. *)
