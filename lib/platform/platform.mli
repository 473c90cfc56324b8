(** The machine interface allocators are written against.

    An allocator never touches the simulator directly: it receives a
    [Platform.t] record providing threads-and-memory primitives. Two
    implementations exist:

    - {!host}: direct execution — locks are [Mutex.t], memory traffic is
      not modelled, cycles are not charged. Used for unit tests of
      allocator logic and for Bechamel micro-benchmarks of the allocator
      code paths themselves.
    - the simulated platform built by [Hoard_sim.Sim.platform]: every
      primitive charges cycles, drives the cache-coherence simulator and
      participates in deterministic scheduling.

    Addresses are simulated-byte addresses (see {!Vmem}). *)

type lock = {
  acquire : unit -> unit;
  release : unit -> unit;
  lock_name : string;
}

(** A named atomic machine word, the substrate for lock-free protocols.
    Each operation is one hardware atomic: linearizable on the host (a
    real [Atomic.t]) and step-atomic on the simulator (the whole
    operation happens inside one scheduler step, with a preemption point
    before and after, charged the coherence traffic on the word's private
    cache line plus, for an operation that writes ([store], [cas] whether
    or not it succeeds, [faa]), {!Cost_model.t.atomic_op}; a [load] costs
    what a plain [read] of the word costs). [cas] is a
    single compare-and-swap — true iff the word held [expected] and was
    replaced by [desired]; [faa] is fetch-and-add, returning the value
    before the addition. [peek] is an inspection hook, not a machine
    operation (like [page_residency]): a charge-free, schedule-invisible
    read for quiescent introspection, callable from outside any simulated
    thread — never use it inside a protocol. [poke] is its write-side
    twin: a charge-free, schedule-invisible store for quiescent teardown
    (post-run cache flushes), equally forbidden inside a protocol. *)
type atomic_int = {
  load : unit -> int;
  store : int -> unit;
  cas : expected:int -> desired:int -> bool;
  faa : int -> int;
  peek : unit -> int;
  poke : int -> unit;
  atomic_name : string;
}

type t = {
  nprocs : int;  (** number of processors the program runs on *)
  page_size : int;
  self_proc : unit -> int;  (** processor executing the calling thread *)
  self_tid : unit -> int;  (** calling thread's id *)
  work : int -> unit;  (** spend n cycles of pure computation *)
  read : addr:int -> len:int -> unit;  (** memory load of [len] bytes *)
  write : addr:int -> len:int -> unit;  (** memory store of [len] bytes *)
  new_lock : string -> lock;
  new_atomic : string -> int -> atomic_int;
      (** [new_atomic name init]: a fresh atomic word, visible to the
          schedule explorer as a synchronisation point named [name]
          (like a lock's name). Same zero-simulated-cost construction
          discipline as [new_lock]; callable from inside or outside
          threads. *)
  now : unit -> int;
      (** event timestamp: the executing processor's simulated clock on
          the simulator, a global monotonic logical counter on the host.
          Cheap and side-effect-free with respect to timing (charges no
          cycles). *)
  page_map : bytes:int -> align:int -> owner:int -> int;
      (** obtain memory from the OS; returns the base address *)
  page_unmap : addr:int -> unit;  (** return a region to the OS *)
  page_decommit : addr:int -> unit;
      (** simulated [madvise(MADV_DONTNEED)] on the whole region based at
          [addr]: the address range stays mapped, its pages leave the
          resident set. Must name a live region base. *)
  page_commit : addr:int -> unit;
      (** re-populate a decommitted region before reusing its memory *)
  page_residency : addr:int -> Vmem.residency;
      (** residency of the page containing [addr]; side-effect-free and
          charge-free (an inspection hook, not a machine operation) *)
  region_bytes : addr:int -> int option;
      (** size of the live region based at [addr]; an inspection hook
          like [page_residency] *)
  mapped_bytes : owner:int -> int;  (** bytes currently held by [owner] *)
  peak_mapped_bytes : owner:int -> int;
}

val host : ?nprocs:int -> unit -> t
(** A direct-execution platform ([nprocs] defaults to 1) over a fresh
    {!Vmem} with its default 4 KiB pages and exact-reuse backend. Thread
    ids come from the calling domain, so it is safe under real
    [Domain]-based parallelism; locks are real mutexes. *)

val host_vmem : t -> Vmem.t option
(** The address space behind a {!host} platform ([None] for other
    platforms). Exposed for tests that inspect accounting. *)

val host_release : t -> unit
(** Drops the bookkeeping {!host} retains for [t] (its {!Vmem.t} entry),
    after which {!host_vmem} returns [None]. Tests that create many host
    platforms should release them so the registry doesn't grow without
    bound. Safe to call from any domain; idempotent. *)
