(** One fully-instrumented Hoard run on the simulator: the allocator is
    built with an {!Obs.t} (event rings + metrics), wrapped in a
    {!Latency_probe}, and the simulator's lock hooks feed the contention
    profiler, a ["locks"] event ring and Perfetto lock-hold spans. This is
    what [hoard_trace profile] and [hoard_bench run --metrics] execute
    (a trace replays as a workload, {!Trace.workload}).

    Instrumentation never changes the run: event recording and the lock
    hooks charge no simulated cycles, so an instrumented run's cycle count
    equals the uninstrumented one (asserted by the determinism test). *)

type bundle = {
  b_name : string;
  b_nprocs : int;
  b_cycles : int;
  b_stats : Alloc_stats.snapshot;
  b_obs : Obs.t;
  b_latency : Latency_probe.t;
  b_lock_stats : (string * int * int) list;  (** [Sim.lock_stats] at end of run *)
  b_contention : Contention.entry list;  (** sorted most-contended first *)
  b_perfetto : string;  (** Chrome trace-event JSON, Perfetto-loadable *)
  b_heatmap : string;  (** ASCII fullness heatmap, heap x size class *)
}

val run_workload : ?config:Hoard_config.t -> Workload_intf.t -> nprocs:int -> bundle
(** Runs [workload] with one thread per processor through
    {!Runner.run_with}, on a machine with [config]'s vmem backend
    (default {!Hoard_config.default}); the lock hooks go in once the
    allocator exists, and the front-end caches are flushed and
    re-checked before the final figures are read. The bundle is named
    after the workload. *)

val metrics_json : bundle -> string
(** A JSON object [{"run": {...}, "metrics": [...]}]: run header
    (name, nprocs, cycles, event totals) plus the full registry export. *)

val contention_table : bundle -> Table.t
(** The 10 most-contended locks as a printable table. *)
