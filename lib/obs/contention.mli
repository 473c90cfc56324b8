(** Lock-contention profiler: attributes spin work to individual named
    locks by combining the simulator's end-of-run [lock_stats] (exact
    acquisition and spin totals per lock) with per-acquisition spin events
    delivered through the simulator's lock hooks.

    The accumulator side ({!on_acquire}) is called from the scheduler, not
    from simulated threads, so it is single-threaded by construction. *)

type entry = {
  c_name : string;  (** lock name, e.g. ["hoard.heap3"] *)
  c_acqs : int;  (** successful acquisitions *)
  c_spins : int;  (** failed (spinning) attempts, all threads *)
  c_contended : int;  (** acquisitions that needed at least one spin *)
  c_max_spin : int;  (** worst spins paid by a single acquisition *)
  c_spin_cycles : int;  (** [spins * spin_cost] — the wasted cycles *)
}

type t

val create : unit -> t

val on_acquire : t -> name:string -> spins:int -> unit
(** Feed one successful acquisition and the spins it took. *)

val finalize : t -> lock_stats:(string * int * int) list -> spin_cost:int -> entry list
(** Merge with [(name, acquisitions, spins)] totals (the shape of
    [Sim.lock_stats]); entries sorted most-contended first. *)

val of_lock_stats : (string * int * int) list -> entry list
(** Profile from end-of-run totals alone (no per-acquisition detail),
    with a spin cost of 1: [c_spin_cycles] is the spin count. *)

val spins_per_acq : entry -> float

val top : ?n:int -> entry list -> entry list

val publish : entry list -> Metrics.t -> unit
(** Register [lock.acquisitions]/[lock.spins]/[lock.spin_cycles] gauges,
    one label set per lock. *)
