(* Systematic concurrency checking CLI: the schedule explorer, the
   differential allocation oracle and the sanitizer overhead probe.

     hoard_check list
     hoard_check explore transfer-free-race-mutant --bound 2 --expect-fail
     hoard_check replay lost-update --schedule 0,1
     hoard_check oracle --workload threadtest --subject hoard-san
     hoard_check slowdown
*)

open Cmdliner

let strategy_of_string = function
  | "chess" -> Explorer.Chess
  | "sleep" -> Explorer.Sleep_dfs
  | s -> failwith (Printf.sprintf "unknown strategy %S (chess|sleep)" s)

let get_scenario name =
  match Scenarios.find name with
  | Some sc -> sc
  | None ->
    Printf.eprintf "unknown scenario %S; available:\n%s\n" name (Scenarios.help ());
    exit 2

let list_cmd =
  let doc = "List scenarios, oracle subjects and checked workloads." in
  let run () =
    Printf.printf "Explorer scenarios:\n%s\n\nOracle subjects:\n%s\n\nWorkloads (quick scale):\n%s\n"
      (Scenarios.help ()) (Check_run.subject_help ()) (Check_run.workload_help ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let scenario_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc:"Scenario name (see list).")

let bound_opt =
  Arg.(
    value
    & opt Config_cli.non_negative 2
    & info [ "bound" ] ~docv:"N" ~doc:"Preemption bound (Chess-style, default 2).")

let strategy_opt =
  Arg.(
    value
    & opt string "chess"
    & info [ "strategy" ] ~docv:"S"
        ~doc:"$(b,chess) (exhaustive bounded-preemption) or $(b,sleep) (sleep-set-pruned DFS).")

let max_runs_opt =
  Arg.(
    value
    & opt Config_cli.positive 10_000
    & info [ "max-runs" ] ~docv:"N" ~doc:"Interleaving budget (default 10000).")

let expect_fail_flag =
  Arg.(
    value & flag
    & info [ "expect-fail" ]
        ~doc:"Exit 0 when a violation IS found (mutant scenarios), 1 when the scenario passes.")

let out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the minimized failing schedule (replayable seed) to $(docv) — the CI artifact.")

let explore_cmd =
  let doc = "Enumerate admissible interleavings of a scenario up to a preemption bound." in
  let run name strategy bound max_runs expect_fail out =
    let sc = get_scenario name in
    let o = Explorer.explore ~strategy:(strategy_of_string strategy) ~bound ~max_runs sc in
    Printf.printf "%s: %d run(s)%s\n" sc.Explorer.sc_name o.Explorer.o_runs
      (if Option.is_some o.Explorer.o_failure then " (stopped at first violation)"
       else if o.Explorer.o_truncated then " (truncated at --max-runs)"
       else " (exhaustive at this bound)");
    match o.Explorer.o_failure with
    | None ->
      Printf.printf "no violation up to preemption bound %d\n" bound;
      exit (if expect_fail then 1 else 0)
    | Some f ->
      let seed = Explorer.schedule_to_string f.Explorer.f_schedule in
      Printf.printf "VIOLATION: %s\nminimized schedule (%d decisions, %d minimization replays): %s\n"
        f.Explorer.f_message
        (List.length f.Explorer.f_schedule)
        f.Explorer.f_minimize_runs seed;
      Printf.printf "replay with: hoard_check replay %s --schedule %s\n" sc.Explorer.sc_name
        (if seed = "" then "\"\"" else seed);
      (match out with
       | Some file ->
         Config_cli.(
           or_exit
             (write_file file
                (Printf.sprintf "scenario: %s\nschedule: %s\nmessage: %s\n" sc.Explorer.sc_name seed
                   f.Explorer.f_message)));
         Printf.printf "wrote %s\n" file
       | None -> ());
      exit (if expect_fail then 0 else 1)
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const run $ scenario_arg $ strategy_opt $ bound_opt $ max_runs_opt $ expect_fail_flag $ out_opt)

let replay_cmd =
  let doc = "Re-run a scenario under a specific schedule (a seed printed by explore)." in
  let schedule_opt =
    Arg.(
      value
      & opt string ""
      & info [ "schedule" ] ~docv:"P1,P2,.."
          ~doc:"Comma-separated processor choices at decision points; the default policy past its end.")
  in
  let run name schedule =
    let sc = get_scenario name in
    match Explorer.replay sc ~schedule:(Explorer.schedule_of_string schedule) with
    | Ok () ->
      Printf.printf "%s: schedule [%s] passes\n" sc.Explorer.sc_name schedule;
      exit 0
    | Error msg ->
      Printf.printf "%s: schedule [%s] FAILS: %s\n" sc.Explorer.sc_name schedule msg;
      exit 1
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ scenario_arg $ schedule_opt)

let oracle_cmd =
  let doc = "Run a workload with every allocation mirrored into the differential oracle." in
  let workload_opt =
    Arg.(value & opt string "threadtest" & info [ "workload" ] ~docv:"W" ~doc:"Workload (see list).")
  in
  let subject_opt =
    Arg.(value & opt string "hoard" & info [ "subject" ] ~docv:"A" ~doc:"Allocator subject (see list).")
  in
  let procs_opt =
    Arg.(value & opt Config_cli.nprocs 4 & info [ "procs" ] ~docv:"P" ~doc:"Simulated processors.")
  in
  let fuzz_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"SEED" ~doc:"Seeded schedule fuzzing for interleaving variety.")
  in
  let no_blowup_flag =
    Arg.(value & flag & info [ "no-blowup" ] ~doc:"Skip the blowup-envelope assertion.")
  in
  let run workload subject nprocs fuzz no_blowup sets =
    let w =
      match Check_run.find_workload workload with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %S; available:\n%s\n" workload (Check_run.workload_help ());
        exit 2
    in
    match
      Check_run.run_oracle ?fuzz ~nprocs ~check_blowup:(not no_blowup)
        ~overrides:(fun cfg -> Config_cli.apply cfg sets)
        ~workload:w ~subject ()
    with
    | r ->
      Printf.printf
        "%s/%s: OK — %d mallocs checked, peak U %d bytes, peak held %d bytes, %d actively shared \
         line(s), quarantine peak %d, cycles %d, lock acquisitions %d\n"
        r.Check_run.c_subject r.Check_run.c_workload r.Check_run.c_mallocs r.Check_run.c_peak_usable
        r.Check_run.c_result.Runner.r_stats.Alloc_stats.peak_held_bytes r.Check_run.c_shared_lines
        r.Check_run.c_quarantine_peak r.Check_run.c_result.Runner.r_cycles
        r.Check_run.c_result.Runner.r_lock_acquisitions
    | exception e ->
      Printf.printf "%s/%s: VIOLATION: %s\n" subject workload (Printexc.to_string e);
      exit 1
  in
  Cmd.v (Cmd.info "oracle" ~doc)
    Term.(
      const run $ workload_opt $ subject_opt $ procs_opt $ fuzz_opt $ no_blowup_flag
      $ Config_cli.set_opt)

let slowdown_cmd =
  let doc = "Measure the host-time overhead of oracle + sanitizer checking." in
  let run () =
    let time f =
      let t0 = Sys.time () in
      f ();
      Sys.time () -. t0
    in
    Printf.printf "%-20s %10s %10s %8s\n" "workload" "plain (s)" "checked(s)" "factor";
    let factors =
      List.map
        (fun w ->
          let factory = Option.get (Allocators.find "hoard") in
          let plain = time (fun () -> ignore (Runner.run (Runner.spec w factory ~nprocs:4))) in
          let checked =
            time (fun () -> ignore (Check_run.run_oracle ~workload:w ~subject:"hoard-san" ()))
          in
          let factor = checked /. Float.max plain 1e-9 in
          Printf.printf "%-20s %10.3f %10.3f %7.1fx\n" w.Workload_intf.w_name plain checked factor;
          factor)
        (Check_run.quick_workloads ())
    in
    let geo =
      exp (List.fold_left (fun acc f -> acc +. log (Float.max f 1e-9)) 0.0 factors /. float_of_int (List.length factors))
    in
    Printf.printf "geometric mean slowdown: %.1fx\n" geo
  in
  Cmd.v (Cmd.info "slowdown" ~doc) Term.(const run $ const ())

let () =
  let doc = "Systematic concurrency checking for the Hoard reproduction." in
  let info = Cmd.info "hoard_check" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; explore_cmd; replay_cmd; oracle_cmd; slowdown_cmd ]))
