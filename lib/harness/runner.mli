(** Executes one (workload, allocator, machine-size) combination on a fresh
    simulated machine and collects every metric the paper's tables and
    figures are built from. Every simulated machine the harness and the
    CLIs run is built here, so every run ends the same way: the
    allocator's [check], then {!Vmem.check}. *)

type spec = {
  workload : Workload_intf.t;
  allocator : Alloc_intf.factory;
  nprocs : int;
  nthreads : int option;  (** defaults to [nprocs] *)
  cost : Cost_model.t;
  lock_kind : Sim.lock_kind;  (** defaults to {!Sim.Spin} *)
  topology : (int * int) option;
      (** two-tier machine shape [(sockets, cores_per_socket)] handed to
          {!Sim.create}; [None] (the default) builds the flat machine *)
}

val spec :
  ?nthreads:int ->
  ?cost:Cost_model.t ->
  ?lock_kind:Sim.lock_kind ->
  ?topology:int * int ->
  Workload_intf.t ->
  Alloc_intf.factory ->
  nprocs:int ->
  spec
(** The machine's address space uses the factory's [vmem_backend]. *)

type result = {
  r_workload : string;
  r_allocator : string;
  r_nprocs : int;
  r_nthreads : int;
  r_cycles : int;  (** completion time in simulated cycles *)
  r_ops : int;  (** memory operations the workload reports *)
  r_stats : Alloc_stats.snapshot;
  r_invalidations : int;
  r_coherence_misses : int;
  r_lock_acquisitions : int;
  r_lock_spins : int;
  r_lock_stats : (string * int * int) list;
      (** per-lock [(name, acquisitions, spins)], creation order *)
  r_vm_peak_mapped : int;
      (** high-water mark of simultaneously mapped bytes, as the
          simulated OS saw it (independent of allocator bookkeeping) *)
  r_vm_address_space : int;
      (** total address-space span the run consumed — how far the OS had
          to extend the mapping area; the fragmentation experiments'
          reuse metric *)
  r_vm_resident : int;  (** committed (resident) bytes at exit *)
  r_cross_node_events : int;
      (** coherence events that crossed a NUMA node boundary (0 on flat
          machines) *)
  r_cross_socket_events : int;
      (** coherence events that crossed a socket boundary of the
          two-tier topology (0 without one) *)
  r_peak_live_threads : int;
      (** peak concurrently-live threads — the P of the blowup envelope
          under thread churn (equals nthreads for non-churn workloads) *)
}

val run : spec -> result
(** Deterministic: same spec, same result. *)

val run_with :
  ?fuzz:int ->
  ?on_sim:(Sim.t -> unit) ->
  ?wrap_platform:(Platform.t -> Platform.t) ->
  ?post:('w -> Alloc_intf.t -> unit) ->
  wrap_allocator:(Platform.t -> Alloc_intf.t -> 'w * Alloc_intf.t) ->
  spec ->
  'w * result
(** {!run} with checking and instrumentation hooks. [fuzz] seeds
    {!Sim.create}'s schedule fuzzer. [on_sim] sees the machine once the
    allocator exists and before it is wrapped (e.g. to install lock
    hooks). [wrap_allocator] interposes on the allocator the workload
    sees and returns what it recorded with (e.g. the differential
    oracle, a latency probe); [wrap_platform] wraps the workload's view
    of the platform (e.g. the
    sanitizer's access checker) — the allocator itself always runs on the
    raw platform. [post] runs after the post-run [check], for quiescent
    assertions. Still deterministic: same arguments, same result. *)

val speedup : base:result -> result -> float
(** [base.cycles / r.cycles] — the paper's speedup metric, with [base]
    normally the same allocator at one processor. *)

val ops_per_mcycle : result -> float
(** Throughput: memory operations per million simulated cycles (the
    Larson figure's y-axis). *)

val fragmentation : result -> float
(** Peak held / peak live (the paper's Table 4 metric). *)
