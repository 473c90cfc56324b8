(* Smoke test of the benchmark (dune runtest), at --scale smoke:
   - the metric and workload names printed match BENCHMARK.json;
   - the result line is valid JSON with the four required keys;
   - two runs produce identical simulated metrics;
   - a cell built with the orphan-lost-superblock mutant is counted as a
     failed cell instead of crashing the run.

   Usage: smoke.exe PATH/TO/BENCHMARK.json *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let names spec key =
  match Option.bind (Json_lite.member key spec) Json_lite.to_list with
  | None -> fail "BENCHMARK.json has no %s list" key
  | Some items ->
    List.map
      (fun item ->
        match Option.bind (Json_lite.member "name" item) Json_lite.to_string with
        | Some n -> n
        | None -> fail "an entry of %s has no name" key)
      items

let metric_names (r : Bench.report) = List.map (fun (n, _, _) -> n) r.metrics

let same_names what ~expected actual =
  if List.sort compare expected <> List.sort compare actual then
    fail "%s: printed [%s], BENCHMARK.json names [%s]" what (String.concat " " actual) (String.concat " " expected)

(* Host times vary run to run; everything else is simulated. *)
let host_metric n = List.mem n [ "setup_s"; "sim.ops_per_s"; "trace.host_overhead" ]

let simulated (r : Bench.report) = List.filter (fun (n, _, _) -> not (host_metric n)) r.metrics

let run () =
  List.map
    (fun (wl : Bench.workload) ->
      let e2e = Bench.measure_e2e wl ~scale:Smoke ~seed:1 ~seconds:0.0 in
      let layers = Bench.measure_layers wl ~scale:Smoke ~seed:1 in
      List.iter
        (fun (r : Bench.report) ->
          List.iter (fun (cell, msg) -> fail "%s failed: %s" cell msg) r.failures;
          List.iter (fail "self-check: %s") r.errors)
        [ e2e; layers ];
      (wl.name, e2e, layers))
    Bench.workloads

let check_result_json (r : Bench.report) =
  match Json_lite.parse (Bench.result_json r) with
  | Error e -> fail "result line is not JSON: %s" e
  | Ok j ->
    List.iter
      (fun k -> if Json_lite.member k j = None then fail "result line lacks %S" k)
      [ "correct"; "attempted"; "failed"; "metrics" ]

let () =
  if Array.length Sys.argv <> 2 then fail "usage: smoke.exe BENCHMARK.json";
  let spec =
    match Json_lite.parse (read_file Sys.argv.(1)) with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
  in
  same_names "workloads" ~expected:(names spec "workloads") (List.map (fun (w : Bench.workload) -> w.name) Bench.workloads);
  let first = run () and second = run () in
  List.iter2
    (fun (w, e2e, layers) (_, e2e', layers') ->
      same_names (w ^ " end-to-end") ~expected:(names spec "end_to_end") (metric_names e2e);
      same_names (w ^ " per-layer") ~expected:(names spec "per_layer") (metric_names layers);
      check_result_json e2e;
      check_result_json layers;
      if simulated e2e <> simulated e2e' || simulated layers <> simulated layers' then
        fail "%s: two runs disagree on simulated metrics" w)
    first second;
  let mutant = Bench.measure_e2e ~mutant:"orphan-lost-superblock" Bench.churn_wave ~scale:Smoke ~seed:1 ~seconds:0.0 in
  if mutant.failures = [] || Bench.correct mutant then fail "the orphan-lost-superblock mutant was not counted as failed";
  Printf.printf "smoke: %d workloads, names match, runs deterministic, mutant counted (%d of %d cells failed)\n"
    (List.length first) (List.length mutant.failures) mutant.attempted
