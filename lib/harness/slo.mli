(** Latency-tail SLO evaluation for the server-mix scenarios.

    A declarative {!spec} states objectives — quantile ceilings over the
    run's latency histograms (per-request and per-op) and an optional
    peak-RSS ceiling — and {!evaluate} grades one instrumented
    {!server_run} against it. Reports render as a {!Table} for humans and
    as flat metrics JSON for CI: [hoard_trace check-json --baseline
    --sum-prefix slo.request.p99] compares the same file a passing run
    uploads, which is the whole p99 regression gate.

    All latencies are simulated cycles ({!Sim.now} deltas), so runs are
    bit-reproducible and the committed baselines are stable across hosts. *)

(** One objective: [metric]'s [quantile] must not exceed [ceiling] cycles.
    Metrics: ["request"] (per-request, from the workload recorder) or a
    {!Latency_probe} op — ["malloc"], ["free"], ["batch.malloc"],
    ["batch.free"], ["realloc"]. *)
type rule = { ru_metric : string; ru_quantile : float; ru_ceiling : int }

type spec = {
  sp_name : string;
  sp_rules : rule list;
  sp_rss_ceiling : int option;  (** bytes; checked against peak resident *)
}

val quantile_name : float -> string
(** 0.5 -> ["p50"], 0.999 -> ["p999"], otherwise ["q<value>"]. *)

val spec_of_json : Json_lite.t -> (spec, string) result
(** Expected shape:
    [{"name":"front-tier","rules":[{"metric":"request","quantile":"p99",
    "ceiling":12000},...],"rss_ceiling":4194304}]. [quantile] accepts a
    number in (0,1] or one of "p50"/"p95"/"p99"/"p999"; [rss_ceiling] is
    optional. *)

val spec_of_string : string -> (spec, string) result

(** One instrumented server-mix run: the workload recorder, an op-level
    {!Latency_probe}, an RSS {!Timeline} and a request-event ring, all
    wired around whichever allocator the factory builds. *)
type server_run = {
  sv_profile : Server_mix.profile;
  sv_allocator : string;
  sv_nprocs : int;
  sv_cycles : int;
  sv_recorder : Server_mix.recorder;
  sv_probe : Latency_probe.t;
  sv_timeline : Timeline.t;
  sv_obs : Obs.t;
  sv_stats : Alloc_stats.snapshot;
}

val run_server :
  ?params:Server_mix.params ->
  Alloc_intf.factory ->
  nprocs:int ->
  server_run
(** Runs the workload to completion through {!Runner.run_with}, on a
    machine with the factory's vmem backend, ending in the allocator's
    [check] and {!Vmem.check}; the timeline samples every 16th
    allocator operation. The
    recorder's sink records [Req_arrival]/[Req_done] into the run's
    ["server"] ring, so ring totals cross-check recorder counts. *)

type check = {
  ck_name : string;  (** e.g. ["request.p999"] *)
  ck_observed : int;  (** -1 when the rule names an unknown metric *)
  ck_ceiling : int;
  ck_ok : bool;
}

type report = { rp_spec : string; rp_checks : check list; rp_ok : bool }

val evaluate : spec -> server_run -> report
(** A rule naming an unknown metric fails its check (a typo in a spec
    must not silently pass CI). *)

val report_table : report -> Table.t

val publish : server_run -> Metrics.t -> unit
(** Registers [slo.request.{count,p50,p99,p999,max}], [slo.rss.peak] and
    [slo.run.cycles] as flat integer gauges labelled
    [allocator]/[profile]/[procs] (flat so [check-json --sum-prefix] can
    sum them), plus the probe's op-latency distributions. *)

val metrics_json : server_run -> string
(** The [{"run":..,"metrics":[..]}] document [hoard_trace check-json
    --expect metrics] consumes; the CI gate diffs this file against a
    committed baseline. *)

val perfetto_json : server_run -> string
(** Trace with request spans per worker, a [request.latency] counter
    track, [held]/[live]/[resident] memory counter tracks (KiB) and every
    ring event as instants. Counter tracks are sorted to monotone
    timestamps before emission. *)
