(* Command-line entry point of the benchmark: prints every metric by name with
   its unit, then, as the last line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.

     dune exec bench/perf/perf.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace 0|1] [--json FILE] [--scale full|smoke]
     dune exec bench/perf/perf.exe -- --spans FILE --cell W/A/P

   Without --workload every workload runs and metric names in the JSON
   line carry a "<workload>/" prefix. --trace 0 prints only the
   end-to-end metrics, --trace 1 only the per-layer ones; the default is
   both. Exits non-zero when a self-check fails; a failed cell is counted
   in "failed", not fatal. *)

let usage =
  "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--scale full|smoke] \
   [--spans FILE --cell W/A/P]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let print_report ~title (r : Bench.report) =
  Printf.printf "== %s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-44s %16s %s\n" n (Bench.value_text v) u) r.metrics;
  List.iter (fun (cell, msg) -> Printf.printf "  FAILED %s: %s\n" cell msg) r.failures;
  List.iter (fun e -> Printf.printf "  SELF-CHECK FAILED %s\n" e) r.errors;
  flush stdout

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* --spans: one traced cell as Chrome trace-event JSON. *)
let spans ~scale ~seed ~path cell =
  let wl, alloc, procs =
    match String.split_on_char '/' cell with
    | [ w; a; p ] ->
      (match (Bench.find_workload w, int_of_string_opt p) with
       | Some wl, Some p when p > 0 -> (wl, a, p)
       | _ -> die "--cell %s: expected WORKLOAD/ALLOCATOR/PROCS" cell)
    | _ -> die "--cell %s: expected WORKLOAD/ALLOCATOR/PROCS" cell
  in
  let p = Perfetto.create () in
  Perfetto.process_name p ~pid:0 (Printf.sprintf "%s (simulated cycles)" cell);
  match Bench.traced_cell ~spans:p wl ~scale ~seed ~alloc ~procs with
  | Error msg -> die "%s failed: %s" cell msg
  | Ok (_, _, l) ->
    write_file path (Perfetto.to_json p);
    Printf.printf "%s: %d trace events written to %s (%d dropped past the cap of %d)\n" cell
      (Perfetto.event_count p) path l.spans_dropped Ledger.max_span_events

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref "" in
  let json = ref "" and scale = ref "full" and spans_file = ref "" and cell = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S repeat the end-to-end pass while another fits in S seconds");
      ("--trace", Arg.Set_string trace, "0|1 end-to-end metrics only (0) or per-layer metrics only (1)");
      ("--json", Arg.Set_string json, "FILE also write the result object to FILE");
      ("--scale", Arg.Set_string scale, "full|smoke workload size (default full)");
      ("--spans", Arg.Set_string spans_file, "FILE write one traced cell as Chrome trace-event JSON");
      ("--cell", Arg.Set_string cell, "W/A/P the cell --spans traces, e.g. server-bursty/hoard-gl/8");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let scale = match Bench.scale_of_string !scale with Some s -> s | None -> die "--scale must be full or smoke" in
  if !spans_file <> "" || !cell <> "" then begin
    if !spans_file = "" || !cell = "" then die "--spans and --cell go together";
    spans ~scale ~seed:!seed ~path:!spans_file !cell;
    exit 0
  end;
  let e2e, layers =
    match !trace with
    | "" -> (true, true)
    | "0" -> (true, false)
    | "1" -> (false, true)
    | t -> die "--trace must be 0 or 1, not %s" t
  in
  let selected =
    if !workload = "" then Bench.workloads
    else match Bench.find_workload !workload with Some w -> [ w ] | None -> die "unknown workload %s" !workload
  in
  let prefixed = List.length selected > 1 in
  let report =
    List.fold_left
      (fun acc (wl : Bench.workload) ->
        let pass enabled title f =
          if not enabled then Bench.empty
          else begin
            let r = f () in
            print_report ~title:(Printf.sprintf "%s, %s, seed %d" wl.name title !seed) r;
            r
          end
        in
        let r0 = pass e2e "end-to-end" (fun () -> Bench.measure_e2e wl ~scale ~seed:!seed ~seconds:!seconds) in
        let r1 = pass layers "per-layer (traced)" (fun () -> Bench.measure_layers wl ~scale ~seed:!seed) in
        let r = Bench.merge r0 r1 in
        let r =
          if prefixed then { r with metrics = List.map (fun (n, v, u) -> (wl.name ^ "/" ^ n, v, u)) r.metrics }
          else r
        in
        Bench.merge acc r)
      Bench.empty selected
  in
  Printf.printf "cells: %d attempted, %d failed\n" report.attempted (List.length report.failures);
  let line = Bench.result_json report in
  if !json <> "" then write_file !json (line ^ "\n");
  print_endline line;
  if report.errors <> [] then exit 1
