(* CLI for the Hoard reproduction: list experiments, run one or all, at
   quick or full scale, as ASCII tables or CSV.

     hoard_bench list
     hoard_bench run fig_threadtest --full --procs 1,2,4,8,14
     hoard_bench all --quick --csv
*)

open Cmdliner

let scale_of_flag full = if full then Experiments.Full else Experiments.Quick

let print_output ~csv (out : Experiments.output) =
  List.iter
    (fun tbl ->
      if csv then print_string (Table.to_csv tbl)
      else begin
        Table.print tbl;
        print_newline ()
      end)
    out.Experiments.tables;
  match out.Experiments.plot with
  | Some plot when not csv -> print_string plot
  | _ -> ()

let list_cmd =
  let doc = "List the registered experiments (one per paper table/figure)." in
  let run () =
    let tbl =
      Table.create ~title:"Experiments"
        ~columns:[ ("id", Table.Left); ("paper item", Table.Left); ("description", Table.Left) ]
    in
    List.iter
      (fun e -> Table.add_row tbl [ e.Experiments.id; e.Experiments.paper_ref; e.Experiments.describe ])
      (Experiments.all ());
    Table.print tbl
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at full scale (the EXPERIMENTS.md configuration).")

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Run at quick scale (the default; overrides $(b,--full)).")

let csv_flag = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of ASCII tables.")

let procs_opt =
  Arg.(
    value
    & opt (some Config_cli.procs) None
    & info [ "procs" ] ~docv:"P1,P2,.." ~doc:"Processor counts to sweep (default depends on scale).")

(* The hoard configuration inspect instruments: the default with [--set]
   overrides on top. *)
let config_term = Config_cli.config Hoard_config.default Config_cli.set_opt

let run_cmd =
  let doc =
    "Run one experiment by id. Its tables use the registered allocators; $(b,--set) configures only the \
     instrumented hoard pass, so it needs $(b,--metrics) or $(b,--trace)."
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (see list).") in
  let metrics_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Also run an instrumented hoard pass on the experiment's representative workload and write \
             its metrics registry (counters, latency distributions, lock contention) as JSON.")
  in
  let trace_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"With $(b,--metrics) machinery: write the instrumented pass's Perfetto trace-event JSON.")
  in
  let json_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the experiment's tables as a JSON report (the CI artifact format).")
  in
  let run id full quick csv procs metrics trace json config =
    let scale = scale_of_flag (full && not quick) in
    match Experiments.find id with
    | None ->
      Printf.eprintf "unknown experiment %S; try: %s\n" id (String.concat " " (Experiments.ids ()));
      exit 1
    | Some e ->
      let out = e.Experiments.run scale ~procs in
      print_output ~csv out;
      (match json with
       | Some f ->
         Config_cli.(
           or_exit
             (write_file f
                (Printf.sprintf "{\"experiment\":\"%s\",\"scale\":\"%s\",\"tables\":[%s]}" id
                   (if full && not quick then "full" else "quick")
                   (String.concat "," (List.map Table.to_json out.Experiments.tables)))));
         Printf.printf "wrote JSON report to %s\n" f
       | None -> ());
      if metrics <> None || trace <> None then begin
        let nprocs =
          match procs with
          | Some (p :: _) -> p
          | _ -> 8
        in
        let w = Experiments.obs_workload id scale in
        let b = Obs_run.run_workload ~config w ~nprocs in
        Printf.printf "instrumented pass: %s on %d procs, %d cycles, %d events recorded (%d dropped)\n"
          b.Obs_run.b_name nprocs b.Obs_run.b_cycles (Obs.total_recorded b.Obs_run.b_obs)
          (Obs.total_dropped b.Obs_run.b_obs);
        (match metrics with
         | Some f ->
           Config_cli.(or_exit (write_file f (Obs_run.metrics_json b)));
           Printf.printf "wrote metrics to %s\n" f
         | None -> ());
        match trace with
        | Some f ->
          Config_cli.(or_exit (write_file f b.Obs_run.b_perfetto));
          Printf.printf "wrote Perfetto trace to %s\n" f
        | None -> ()
      end
  in
  (* The experiment's tables build their allocators from the registry;
     only the instrumented pass reads the config, so an override without
     it would be silently ignored. *)
  let checked id full quick csv procs metrics trace json sets =
    if sets <> [] && metrics = None && trace = None then
      `Error (false, "--set configures only the instrumented hoard pass: add --metrics FILE or --trace FILE")
    else `Ok (run id full quick csv procs metrics trace json (Config_cli.apply Hoard_config.default sets))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const checked $ id_arg $ full_flag $ quick_flag $ csv_flag $ procs_opt $ metrics_opt $ trace_opt
        $ json_opt $ Config_cli.set_opt))

let all_cmd =
  let doc = "Run every experiment in order." in
  let run full csv procs =
    List.iter
      (fun e ->
        Printf.printf "### %s (%s)\n\n" e.Experiments.title e.Experiments.id;
        print_output ~csv (e.Experiments.run (scale_of_flag full) ~procs))
      (Experiments.all ())
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ full_flag $ csv_flag $ procs_opt)

let workload_arg =
  Arg.(
    value
    & opt string "threadtest"
    & info [ "workload"; "w" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Benchmark to drive (%s)." (String.concat ", " Experiments.workload_names)))

let nprocs_arg = Arg.(value & opt Config_cli.nprocs 8 & info [ "procs"; "p" ] ~doc:"Simulated processors.")

let get_workload name full =
  match Experiments.workload name (scale_of_flag full) with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; known: %s\n" name (String.concat ", " Experiments.workload_names);
    exit 1

let inspect_cmd =
  let doc = "Run a benchmark under Hoard, then dump the allocator's heap state." in
  let run name full nprocs config =
    let w = get_workload name full in
    let hoard = ref None in
    let factory =
      {
        (Hoard.factory ~config ()) with
        Alloc_intf.instantiate =
          (fun pf ->
            let h = Hoard.create ~config pf in
            hoard := Some h;
            Hoard.allocator h);
      }
    in
    (* Dumped once the run has passed [check], before the final figures. *)
    let post () (a : Alloc_intf.t) =
      let h = Option.get !hoard in
      Printf.printf "pending remote frees: [%s]\n"
        (String.concat "; " (Array.to_list (Array.map string_of_int (Hoard.remote_queue_lengths h))));
      if config.Hoard_config.front_end > 0 then begin
        List.iter
          (fun (tid, counts) ->
            Printf.printf "tcache tid=%d: %d blocks cached\n" tid (Array.fold_left ( + ) 0 counts))
          (Hoard.cache_counts h);
        Hoard.flush_caches h;
        a.Alloc_intf.check ()
      end;
      if config.Hoard_config.large_cache > 0 then
        Printf.printf "large cache: %d regions parked\n" (Hoard.large_cache_length h)
    in
    let (), r = Runner.run_with ~post ~wrap_allocator:(fun _ a -> ((), a)) (Runner.spec w factory ~nprocs) in
    Printf.printf "%s on %d processors: %d cycles\n%s\n\n" name nprocs r.Runner.r_cycles
      (Format.asprintf "%a" Alloc_stats.pp_snapshot r.Runner.r_stats);
    Format.printf "%a@." Hoard.pp_heaps (Option.get !hoard)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    Term.(
      const run $ workload_arg $ full_flag $ nprocs_arg $ config_term)

let sweep_cmd =
  let doc = "Run one benchmark under Hoard with explicit algorithm parameters." in
  (* -f/-k/--sbsize are the paper's parameter names for three knobs,
     applied before any --set. *)
  let overrides =
    Term.(
      const (fun f k s sets -> f @ k @ s @ sets)
      $ Config_cli.knob_flag ~knob:"empty-fraction" [ "f" ] ~doc:"Emptiness fraction f (default 0.25)."
      $ Config_cli.knob_flag ~knob:"slack" [ "k" ] ~doc:"Slack K in superblocks (default 4)."
      $ Config_cli.knob_flag ~knob:"sb-size" [ "sbsize" ] ~doc:"Superblock size S (default 8192)."
      $ Config_cli.set_opt)
  in
  let run name full nprocs config =
    let w = get_workload name full in
    let r = Runner.run (Runner.spec w (Hoard.factory ~config ()) ~nprocs) in
    Printf.printf "%s P=%d %s: %d cycles, %.1f ops/Mcycle, frag %.2f, transfers %d/%d, %d invalidations\n"
      name nprocs
      (Format.asprintf "%a" Hoard_config.pp config)
      r.Runner.r_cycles (Runner.ops_per_mcycle r) (Runner.fragmentation r)
      r.Runner.r_stats.Alloc_stats.sb_to_global r.Runner.r_stats.Alloc_stats.sb_from_global
      r.Runner.r_invalidations;
    Printf.printf
      "  vmem: %d KiB peak mapped, %d KiB address space, %d KiB resident at exit; %d decommits, %d recommits\n"
      (r.Runner.r_vm_peak_mapped / 1024) (r.Runner.r_vm_address_space / 1024)
      (r.Runner.r_vm_resident / 1024) r.Runner.r_stats.Alloc_stats.decommits
      r.Runner.r_stats.Alloc_stats.recommits
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ workload_arg $ full_flag $ nprocs_arg
      $ Config_cli.config Hoard_config.default overrides)

let serve_cmd =
  let doc =
    "Run the front-tier server mix under one allocator, report request-latency percentiles, and \
     optionally grade the run against an SLO spec (nonzero exit on violation)."
  in
  let profile_arg =
    Arg.(
      value
      & opt string "bursty"
      & info [ "profile" ] ~docv:"NAME" ~doc:"Arrival profile: $(b,steady), $(b,bursty) or $(b,flash).")
  in
  let allocator_arg =
    Arg.(
      value
      & opt string "hoard-fe"
      & info [ "allocator"; "a" ] ~docv:"LABEL" ~doc:"Allocator to serve with (see $(b,hoard_trace) list).")
  in
  let requests_opt =
    Arg.(
      value
      & opt Config_cli.non_negative 0
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests across all workers (0 = the scale default).")
  in
  let slo_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC.json"
          ~doc:
            "Grade the run against this SLO spec and exit nonzero if any objective is violated. Spec \
             shape: {\"name\":..,\"rules\":[{\"metric\":\"request\",\"quantile\":\"p99\",\
             \"ceiling\":CYCLES},..],\"rss_ceiling\":BYTES}.")
  in
  let report_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the run's flat metrics JSON (slo.request.* percentiles, RSS peak, op latency \
             distributions) — the file the CI p99 gate diffs with $(b,hoard_trace) check-json.")
  in
  let trace_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Perfetto trace: request spans per worker, a request-latency counter track, and \
             held/live/resident memory counter tracks.")
  in
  let run profile_name alloc_label full quick nprocs requests slo report trace sets =
    let profile =
      match Server_mix.profile_of_string profile_name with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown profile %S; known: steady, bursty, flash\n" profile_name;
        exit 1
    in
    let factory =
      match Allocators.find alloc_label with
      | Some f -> f
      | None ->
        Printf.eprintf "unknown allocator %S; known:\n%s\n" alloc_label (Allocators.help ());
        exit 1
    in
    let factory =
      if sets = [] then factory
      else
        match Allocators.with_overrides (fun cfg -> Config_cli.apply cfg sets) alloc_label with
        | Some f -> f
        | None ->
          Printf.eprintf "allocator %S has no config knobs (--set applies to the hoard family)\n"
            alloc_label;
          exit 1
    in
    (* The spec is read and parsed before the run, so a bad path or spec
       costs no simulation. *)
    let slo =
      Option.map
        (fun spec_file ->
          match Slo.spec_of_string Config_cli.(or_exit (read_file spec_file)) with
          | Ok spec -> spec
          | Error msg ->
            Printf.eprintf "%s: %s\n" spec_file msg;
            exit 1)
        slo
    in
    let scale = scale_of_flag (full && not quick) in
    let params =
      let p = Experiments.server_params profile scale in
      if requests > 0 then { p with Server_mix.requests } else p
    in
    let r = Slo.run_server ~params factory ~nprocs in
    let h = Server_mix.request_latencies r.Slo.sv_recorder in
    Printf.printf
      "server mix (%s) under %s on %d procs: %d requests in %d cycles\n\
       request latency (cycles): p50=%d p99=%d p999=%d max=%d; RSS peak %d KiB\n"
      (Server_mix.profile_name profile) alloc_label nprocs (Histogram.count h) r.Slo.sv_cycles
      (Histogram.percentile h 0.5) (Histogram.percentile h 0.99) (Histogram.percentile h 0.999)
      (Option.value ~default:0 (Histogram.max_value h))
      ((r.Slo.sv_stats.Alloc_stats.peak_resident_bytes + 1023) / 1024);
    (match report with
     | Some f ->
       Config_cli.(or_exit (write_file f (Slo.metrics_json r)));
       Printf.printf "wrote metrics report to %s\n" f
     | None -> ());
    (match trace with
     | Some f ->
       Config_cli.(or_exit (write_file f (Slo.perfetto_json r)));
       Printf.printf "wrote Perfetto trace to %s\n" f
     | None -> ());
    match slo with
    | None -> ()
    | Some spec ->
      let rep = Slo.evaluate spec r in
      Table.print (Slo.report_table rep);
      if not rep.Slo.rp_ok then exit 2
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ profile_arg $ allocator_arg $ full_flag $ quick_flag $ nprocs_arg $ requests_opt
      $ slo_opt $ report_opt $ trace_opt $ Config_cli.set_opt)

let () =
  let doc = "Reproduction harness for 'Hoard: A Scalable Memory Allocator' (ASPLOS 2000)." in
  let info = Cmd.info "hoard_bench" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd; inspect_cmd; sweep_cmd; serve_cmd ]))
