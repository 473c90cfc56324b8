(* The SLO layer: declarative latency/RSS objectives evaluated against a
   server-mix run, reported as tables, metrics JSON (the CI gate's input)
   and Perfetto counter tracks. *)

(* --- specs --- *)

type rule = { ru_metric : string; ru_quantile : float; ru_ceiling : int }

type spec = { sp_name : string; sp_rules : rule list; sp_rss_ceiling : int option }

let quantile_name q =
  if Float.abs (q -. 0.5) < 1e-9 then "p50"
  else if Float.abs (q -. 0.95) < 1e-9 then "p95"
  else if Float.abs (q -. 0.99) < 1e-9 then "p99"
  else if Float.abs (q -. 0.999) < 1e-9 then "p999"
  else Printf.sprintf "q%g" q

let quantile_of_string = function
  | "p50" -> Some 0.5
  | "p95" -> Some 0.95
  | "p99" -> Some 0.99
  | "p999" -> Some 0.999
  | _ -> None

let spec_of_json j =
  let open Json_lite in
  let ( let* ) = Result.bind in
  let name =
    match Option.bind (member "name" j) to_string with
    | Some n -> n
    | None -> "slo"
  in
  let* rules =
    match Option.bind (member "rules" j) to_list with
    | None -> Error "spec: missing rules array"
    | Some rs ->
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let metric = Option.bind (member "metric" r) to_string in
          let quantile =
            match member "quantile" r with
            | Some (Num q) -> Some q
            | Some (Str s) -> quantile_of_string s
            | _ -> None
          in
          let ceiling = Option.bind (member "ceiling" r) to_float in
          match (metric, quantile, ceiling) with
          | Some m, Some q, Some c when q > 0.0 && q <= 1.0 && c > 0.0 ->
            Ok ({ ru_metric = m; ru_quantile = q; ru_ceiling = int_of_float c } :: acc)
          | _ -> Error "spec: each rule needs metric (string), quantile (0<q<=1 or \"p99\"), ceiling (>0)")
        (Ok []) rs
      |> Result.map List.rev
  in
  let rss =
    match Option.bind (member "rss_ceiling" j) to_float with
    | Some b when b > 0.0 -> Some (int_of_float b)
    | _ -> None
  in
  Ok { sp_name = name; sp_rules = rules; sp_rss_ceiling = rss }

let spec_of_string s =
  match Json_lite.parse s with
  | Error m -> Error ("spec: invalid JSON: " ^ m)
  | Ok j -> spec_of_json j

(* --- one instrumented server run --- *)

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

let run_server ?(params = Server_mix.default_params) ?(every = 16) (factory : Alloc_intf.factory) ~nprocs =
  let recorder = Server_mix.new_recorder () in
  let obs = Obs.create () in
  let ring = Obs.new_ring obs "server" in
  Server_mix.set_sink recorder (fun ~arrival ~latency ~who ->
      Event_ring.record ring ~at:arrival ~kind:Event_ring.Req_arrival ~who ~heap:(-1) ~sclass:(-1) ~arg:0;
      Event_ring.record ring ~at:(arrival + latency) ~kind:Event_ring.Req_done ~who ~heap:(-1)
        ~sclass:(-1) ~arg:latency);
  let wrap_allocator _pf a =
    let probe, a = Latency_probe.wrap a in
    let timeline, a = Timeline.wrap ~every a in
    ((probe, timeline), a)
  in
  let w = Server_mix.make ~params ~recorder () in
  let (probe, timeline), r = Runner.run_with ~wrap_allocator (Runner.spec w factory ~nprocs) in
  {
    sv_profile = params.Server_mix.profile;
    sv_allocator = factory.Alloc_intf.label;
    sv_nprocs = nprocs;
    sv_cycles = r.Runner.r_cycles;
    sv_recorder = recorder;
    sv_probe = probe;
    sv_timeline = timeline;
    sv_obs = obs;
    sv_stats = r.Runner.r_stats;
  }

let metric_histogram run metric =
  match metric with
  | "request" -> Some (Server_mix.request_latencies run.sv_recorder)
  | "malloc" -> Some (Latency_probe.malloc_latencies run.sv_probe)
  | "free" -> Some (Latency_probe.free_latencies run.sv_probe)
  | "batch.malloc" -> Some (Latency_probe.batch_malloc_latencies run.sv_probe)
  | "batch.free" -> Some (Latency_probe.batch_free_latencies run.sv_probe)
  | "realloc" -> Some (Latency_probe.realloc_latencies run.sv_probe)
  | _ -> None

(* --- evaluation --- *)

type check = { ck_name : string; ck_observed : int; ck_ceiling : int; ck_ok : bool }

type report = { rp_spec : string; rp_checks : check list; rp_ok : bool }

let evaluate spec run =
  let checks =
    List.map
      (fun r ->
        let name = Printf.sprintf "%s.%s" r.ru_metric (quantile_name r.ru_quantile) in
        match metric_histogram run r.ru_metric with
        | None -> { ck_name = name; ck_observed = -1; ck_ceiling = r.ru_ceiling; ck_ok = false }
        | Some h ->
          let v = Histogram.percentile h r.ru_quantile in
          { ck_name = name; ck_observed = v; ck_ceiling = r.ru_ceiling; ck_ok = v <= r.ru_ceiling })
      spec.sp_rules
  in
  let checks =
    match spec.sp_rss_ceiling with
    | None -> checks
    | Some cap ->
      let peak = run.sv_stats.Alloc_stats.peak_resident_bytes in
      checks @ [ { ck_name = "rss.peak"; ck_observed = peak; ck_ceiling = cap; ck_ok = peak <= cap } ]
  in
  { rp_spec = spec.sp_name; rp_checks = checks; rp_ok = List.for_all (fun c -> c.ck_ok) checks }

let report_table report =
  let tbl =
    Table.create
      ~title:(Printf.sprintf "SLO report: %s (%s)" report.rp_spec (if report.rp_ok then "PASS" else "FAIL"))
      ~columns:
        [ ("objective", Table.Left); ("observed", Table.Right); ("ceiling", Table.Right); ("verdict", Table.Left) ]
  in
  List.iter
    (fun c ->
      Table.add_row tbl
        [
          c.ck_name;
          (if c.ck_observed < 0 then "unknown metric" else string_of_int c.ck_observed);
          string_of_int c.ck_ceiling;
          (if c.ck_ok then "ok" else "VIOLATED");
        ])
    report.rp_checks;
  tbl

(* --- metrics JSON (the CI gate's input) ---

   Gate values are flat integers, not distribution objects, because
   [hoard_trace check-json --baseline --sum-prefix] sums numeric values
   only; [slo.request.p99] must be directly summable. *)

let publish run metrics =
  let labels =
    [
      ("allocator", run.sv_allocator);
      ("profile", Server_mix.profile_name run.sv_profile);
      ("procs", string_of_int run.sv_nprocs);
    ]
  in
  let h = Server_mix.request_latencies run.sv_recorder in
  let reg name v = Metrics.register metrics ~name ~labels (fun () -> Metrics.Int v) in
  reg "slo.request.count" (Histogram.count h);
  reg "slo.request.p50" (Histogram.percentile h 0.5);
  reg "slo.request.p99" (Histogram.percentile h 0.99);
  reg "slo.request.p999" (Histogram.percentile h 0.999);
  reg "slo.request.max" (Option.value ~default:0 (Histogram.max_value h));
  reg "slo.rss.peak" run.sv_stats.Alloc_stats.peak_resident_bytes;
  reg "slo.run.cycles" run.sv_cycles;
  Latency_probe.publish run.sv_probe metrics

let metrics_json run =
  let metrics = Metrics.create () in
  publish run metrics;
  Printf.sprintf
    "{\"run\":{\"name\":%s,\"nprocs\":%d,\"cycles\":%d,\"events_recorded\":%d,\"events_dropped\":%d},\n\
     \"metrics\":%s}"
    (Perfetto.str (Printf.sprintf "server-%s/%s" (Server_mix.profile_name run.sv_profile) run.sv_allocator))
    run.sv_nprocs run.sv_cycles (Obs.total_recorded run.sv_obs) (Obs.total_dropped run.sv_obs)
    (Metrics.to_json metrics)

(* --- Perfetto export ---

   Counter samples are recorded by whichever simulated thread ran last,
   so raw timestamps are only *nearly* sorted (a long step on one
   processor can complete after a later-picked short step on another).
   Tracks are sorted before emission: Perfetto counter tracks must be
   monotone to render, and the round-trip test asserts it. *)

let sorted_by_ts xs = List.stable_sort (fun (a, _) (b, _) -> compare a b) xs

let timeline_counters p ~pid ~name tl =
  List.iter
    (fun (at, s) ->
      Perfetto.counter p ~name ~ts:at ~pid
        ~series:
          [
            ("held", s.Timeline.held / 1024);
            ("live", s.Timeline.live / 1024);
            ("resident", s.Timeline.resident / 1024);
          ])
    (sorted_by_ts (List.map (fun (s : Timeline.sample) -> (s.Timeline.at, s)) (Timeline.samples tl)))

let request_counters p ~pid recorder =
  List.iter
    (fun (ts, latency) -> Perfetto.counter p ~name:"request.latency" ~ts ~pid ~series:[ ("cycles", latency) ])
    (sorted_by_ts
       (List.map (fun (arrival, latency, _) -> (arrival + latency, latency)) (Server_mix.samples recorder)))

let request_spans p ~pid recorder =
  List.iter
    (fun (arrival, latency, who) ->
      Perfetto.span p ~name:"request" ~cat:"server" ~ts:arrival ~dur:(max 1 latency) ~pid ~tid:who ())
    (Server_mix.samples recorder)

let perfetto_json run =
  let p = Perfetto.create () in
  let pid = 0 in
  Perfetto.process_name p ~pid
    (Printf.sprintf "server-%s/%s (simulated machine)" (Server_mix.profile_name run.sv_profile)
       run.sv_allocator);
  for proc = 0 to run.sv_nprocs - 1 do
    Perfetto.thread_name p ~pid ~tid:proc (Printf.sprintf "proc%d" proc)
  done;
  request_spans p ~pid run.sv_recorder;
  request_counters p ~pid run.sv_recorder;
  timeline_counters p ~pid ~name:"memory KiB" run.sv_timeline;
  List.iter
    (fun (rname, ring) ->
      Event_ring.iter ring (fun (e : Event_ring.event) ->
          Perfetto.instant p ~name:(Event_ring.kind_name e.kind) ~cat:("ring." ^ rname) ~ts:e.at ~pid
            ~tid:(max 0 e.who)
            ~args:[ ("arg", string_of_int e.arg) ]
            ()))
    (Obs.rings run.sv_obs);
  Perfetto.to_json p
