(* Allocation-trace tooling:

     hoard_trace generate --ops 10000 --threads 4 --out t.trace
     hoard_trace validate t.trace
     hoard_trace replay t.trace --allocator hoard --procs 4
     hoard_trace bench t.trace            # compare all allocators
     hoard_trace profile t.trace --perfetto t.json --metrics m.json
     hoard_trace check-json m.json --expect metrics
*)

open Cmdliner

let load path =
  match Trace.of_string Config_cli.(or_exit (read_file path)) with
  | Ok t -> t
  | Error m ->
    Printf.eprintf "%s: %s\n" path m;
    exit 1

(* The factory [name] labels, with [sets] applied. *)
let factory_of ~sets name =
  if name = "help" then begin
    print_endline "allocators:";
    print_endline (Allocators.help ());
    exit 0
  end;
  match Allocators.find name with
  | None ->
    Printf.eprintf "unknown allocator %S; known: %s\n" name (String.concat ", " (Allocators.labels ()));
    exit 1
  | Some f when sets = [] -> f
  | Some _ ->
    (match Allocators.with_overrides (fun cfg -> Config_cli.apply cfg sets) name with
     | Some f -> f
     | None ->
       Printf.eprintf "--set: allocator %S has no config knobs\n" name;
       exit 1)

let replay trace factory ~procs = Runner.run (Runner.spec (Trace.workload trace) factory ~nprocs:procs)

let generate_cmd =
  let doc = "Generate a synthetic allocation trace." in
  let ops = Arg.(value & opt Config_cli.positive 10_000 & info [ "ops" ] ~doc:"Operation count.") in
  let threads = Arg.(value & opt Config_cli.positive 4 & info [ "threads" ] ~doc:"Logical threads.") in
  let live =
    Arg.(value & opt Config_cli.non_negative 50 & info [ "live" ] ~doc:"Live objects per thread (target).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let min_size = Arg.(value & opt Config_cli.positive 8 & info [ "min-size" ] ~doc:"Minimum object size.") in
  let max_size =
    Arg.(value & opt Config_cli.positive 1024 & info [ "max-size" ] ~doc:"Maximum object size.")
  in
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.") in
  let run ops threads live seed min_size max_size out =
    if min_size > max_size then
      `Error (true, Printf.sprintf "--min-size %d exceeds --max-size %d" min_size max_size)
    else begin
      let t = Trace.generate ~seed ~ops ~threads ~live_target:live ~size_dist:(Trace.Uniform (min_size, max_size)) () in
      Config_cli.(or_exit (write_file out (Trace.to_string t)));
      Printf.printf "wrote %d ops (peak live %d bytes) to %s\n" (Trace.length t) (Trace.max_live_bytes t) out;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(ret (const run $ ops $ threads $ live $ seed $ min_size $ max_size $ out))

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

let validate_cmd =
  let doc = "Check a trace file for well-formedness." in
  let run path =
    let t = load path in
    match Trace.validate t with
    | Ok () ->
      Printf.printf "%s: %d ops, peak live %d bytes, %d objects leaked at end\n" path (Trace.length t)
        (Trace.max_live_bytes t)
        (List.length (Trace.live_at_end t))
    | Error m ->
      Printf.eprintf "%s: INVALID: %s\n" path m;
      exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ file_arg)

let procs_arg = Arg.(value & opt Config_cli.nprocs 4 & info [ "procs" ] ~doc:"Simulated processors.")

let replay_cmd =
  let doc = "Replay a trace against one allocator on the simulator." in
  let alloc = Arg.(value & opt string "hoard" & info [ "allocator"; "a" ] ~doc:"Allocator to drive.") in
  let run path alloc procs sets =
    let t = load path in
    let r = replay t (factory_of ~sets alloc) ~procs in
    Printf.printf "%s on %d procs: %d cycles, frag %.2f, %d invalidations\n" alloc procs r.Runner.r_cycles
      (Runner.fragmentation r) r.Runner.r_invalidations;
    Format.printf "stats: %a@." Alloc_stats.pp_snapshot r.Runner.r_stats
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ alloc $ procs_arg $ Config_cli.set_opt)

let profile_cmd =
  let doc = "Replay a trace against instrumented hoard: contention, heatmap, Perfetto/metrics export." in
  let perfetto =
    Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc:"Write a Perfetto/Chrome trace-event JSON file.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Write the metrics registry as JSON.")
  in
  let run path procs perfetto metrics sets =
    let t = load path in
    let config = Config_cli.apply Hoard_config.default sets in
    Config_cli.check_writable [ perfetto; metrics ];
    let w = { (Trace.workload t) with Workload_intf.w_name = Filename.basename path } in
    let b = Obs_run.run_workload ~config w ~nprocs:procs in
    Printf.printf "%s on %d procs: %d cycles, %d events recorded (%d dropped)\n" path procs b.Obs_run.b_cycles
      (Obs.total_recorded b.Obs_run.b_obs) (Obs.total_dropped b.Obs_run.b_obs);
    Format.printf "stats: %a@." Alloc_stats.pp_snapshot b.Obs_run.b_stats;
    Table.print (Obs_run.contention_table b);
    print_string b.Obs_run.b_heatmap;
    (match perfetto with
     | Some f ->
       Config_cli.(or_exit (write_file f b.Obs_run.b_perfetto));
       Printf.printf "wrote Perfetto trace to %s (open at https://ui.perfetto.dev)\n" f
     | None -> ());
    match metrics with
    | Some f ->
      Config_cli.(or_exit (write_file f (Obs_run.metrics_json b)));
      Printf.printf "wrote metrics to %s\n" f
    | None -> ()
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ file_arg $ procs_arg $ perfetto $ metrics $ Config_cli.set_opt)

(* Structural validation of the two JSON artefacts the observability layer
   emits, plus metric comparison against a baseline export, for CI smoke
   checks (no external JSON tooling in the image). *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* Sum of the values of every metric whose name starts with [prefix] and
   whose labels render to something containing [label_contains]. *)
let sum_metrics j ~prefix ~label_contains =
  match Option.bind (Json_lite.member "metrics" j) Json_lite.to_list with
  | None -> None
  | Some ms ->
    Some
      (List.fold_left
         (fun acc m ->
           let name_ok =
             match Option.bind (Json_lite.member "name" m) Json_lite.to_string with
             | Some n -> String.starts_with ~prefix n
             | None -> false
           in
           let label_ok =
             match label_contains with
             | None -> true
             | Some sub ->
               (match Json_lite.member "labels" m with
                | Some (Json_lite.Obj kvs) ->
                  List.exists
                    (fun (k, v) ->
                      match Json_lite.to_string v with
                      | Some s -> contains ~sub (k ^ "=" ^ s)
                      | None -> false)
                    kvs
                | _ -> false)
           in
           if name_ok && label_ok then
             match Option.bind (Json_lite.member "value" m) Json_lite.to_float with
             | Some v -> acc +. v
             | None -> acc
           else acc)
         0.0 ms)

let check_json_cmd =
  let doc = "Validate an emitted JSON artefact (Perfetto trace or metrics export)." in
  let expect =
    Arg.(
      value
      & opt (enum [ ("trace", `Trace); ("metrics", `Metrics); ("any", `Any) ]) `Any
      & info [ "expect" ] ~doc:"Expected shape: $(b,trace), $(b,metrics) or $(b,any) (parse only).")
  in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "A second metrics export to compare against: sum the metrics selected by $(b,--sum-prefix) \
             and $(b,--label-contains) in both files and fail unless FILE's sum stays within \
             $(b,--max-ratio) times the baseline's.")
  in
  let sum_prefix =
    Arg.(
      value
      & opt (some string) None
      & info [ "sum-prefix" ] ~docv:"STR" ~doc:"Metric-name prefix to sum (e.g. $(b,lock.acquisitions)).")
  in
  let label_contains =
    Arg.(
      value
      & opt (some string) None
      & info [ "label-contains" ] ~docv:"STR"
          ~doc:"Only sum metrics one of whose rendered $(i,key=value) labels contains STR.")
  in
  let max_ratio =
    Arg.(value & opt float 1.0 & info [ "max-ratio" ] ~docv:"R" ~doc:"Largest acceptable FILE/baseline sum ratio.")
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JSON file.") in
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; exit 1) fmt in
  let run path expect baseline sum_prefix label_contains max_ratio =
    match Json_lite.parse Config_cli.(or_exit (read_file path)) with
    | Error m -> fail "%s: invalid JSON: %s" path m
    | Ok j ->
      (match expect with
       | `Any -> Printf.printf "%s: valid JSON\n" path
       | `Trace ->
         (match Option.bind (Json_lite.member "traceEvents" j) Json_lite.to_list with
          | None -> fail "%s: no traceEvents array" path
          | Some events ->
            List.iteri
              (fun i e ->
                match (Json_lite.member "ph" e, Json_lite.member "pid" e) with
                | Some (Json_lite.Str _), Some (Json_lite.Num _) -> ()
                | _ -> fail "%s: traceEvents[%d] lacks ph/pid" path i)
              events;
            Printf.printf "%s: valid trace JSON, %d events\n" path (List.length events))
       | `Metrics ->
         (match
            ( Option.bind (Json_lite.member "run" j) (Json_lite.member "cycles"),
              Option.bind (Json_lite.member "metrics" j) Json_lite.to_list )
          with
          | Some (Json_lite.Num _), Some ms ->
            List.iteri
              (fun i m ->
                match (Json_lite.member "name" m, Json_lite.member "value" m) with
                | Some (Json_lite.Str _), Some _ -> ()
                | _ -> fail "%s: metrics[%d] lacks name/value" path i)
              ms;
            Printf.printf "%s: valid metrics JSON, %d metrics\n" path (List.length ms)
          | _ -> fail "%s: missing run.cycles or metrics array" path));
      (match (baseline, sum_prefix) with
       | None, _ -> ()
       | Some _, None -> fail "--baseline needs --sum-prefix"
       | Some bpath, Some prefix ->
         let base_j =
           match Json_lite.parse Config_cli.(or_exit (read_file bpath)) with
           | Ok j -> j
           | Error m -> fail "%s: invalid JSON: %s" bpath m
         in
         let sum what j' =
           match sum_metrics j' ~prefix ~label_contains with
           | Some s -> s
           | None -> fail "%s: no metrics array to sum" what
         in
         let cur = sum path j and base = sum bpath base_j in
         let ratio = if base = 0.0 then if cur = 0.0 then 0.0 else infinity else cur /. base in
         let selector =
           prefix
           ^
           match label_contains with
           | Some s -> Printf.sprintf "{%s}" s
           | None -> ""
         in
         Printf.printf "sum(%s): %.0f vs baseline %.0f (ratio %.3f, max %.3f)\n" selector cur base ratio
           max_ratio;
         if ratio > max_ratio then
           fail "%s: sum(%s) = %.0f exceeds %.3f x baseline %.0f" path selector cur max_ratio base)
  in
  Cmd.v (Cmd.info "check-json" ~doc)
    Term.(const run $ file $ expect $ baseline $ sum_prefix $ label_contains $ max_ratio)

let bench_cmd =
  let doc = "Replay a trace against every allocator and compare." in
  let run path procs sets =
    let t = load path in
    let tbl =
      Table.create ~title:(Printf.sprintf "%s on %d processors" path procs)
        ~columns:
          [
            ("allocator", Table.Left);
            ("cycles", Table.Right);
            ("frag", Table.Right);
            ("invalidations", Table.Right);
            ("os maps", Table.Right);
          ]
    in
    List.iter
      (fun f ->
        let f =
          if sets = [] then f
          else Option.value ~default:f (Allocators.with_overrides (fun cfg -> Config_cli.apply cfg sets) f.Alloc_intf.label)
        in
        let r = replay t f ~procs in
        Table.add_row tbl
          [
            f.Alloc_intf.label;
            string_of_int r.Runner.r_cycles;
            Table.cell_float (Runner.fragmentation r);
            string_of_int r.Runner.r_invalidations;
            string_of_int r.Runner.r_stats.Alloc_stats.os_maps;
          ])
      (Allocators.all ());
    Table.print tbl
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ file_arg $ procs_arg $ Config_cli.set_opt)

let () =
  let doc = "Allocation-trace tooling for the Hoard reproduction." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "hoard_trace" ~version:"1.0" ~doc)
          [ generate_cmd; validate_cmd; replay_cmd; bench_cmd; profile_cmd; check_json_cmd ]))
