(* The experiment harness: runner metrics and the experiment registry,
   including shape assertions on the headline results (who wins, roughly
   by how much). These run at Quick scale. *)

let hoard = Hoard.factory ()

let serial = Locked_heaps.serial ()

let tt = Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 3; objects = 1600 } ()

let test_runner_basic () =
  let r = Runner.run (Runner.spec tt hoard ~nprocs:2) in
  Alcotest.(check string) "workload name" "threadtest" r.Runner.r_workload;
  Alcotest.(check string) "allocator name" "hoard" r.Runner.r_allocator;
  Alcotest.(check int) "nthreads defaults to nprocs" 2 r.Runner.r_nthreads;
  Alcotest.(check bool) "cycles positive" true (r.Runner.r_cycles > 0);
  Alcotest.(check bool) "ops positive" true (r.Runner.r_ops > 0)

let test_runner_deterministic () =
  let a = Runner.run (Runner.spec tt hoard ~nprocs:4) in
  let b = Runner.run (Runner.spec tt hoard ~nprocs:4) in
  Alcotest.(check int) "same cycles" a.Runner.r_cycles b.Runner.r_cycles;
  Alcotest.(check int) "same invalidations" a.Runner.r_invalidations b.Runner.r_invalidations

let test_speedup_metric () =
  let base = Runner.run (Runner.spec tt hoard ~nprocs:1) in
  Alcotest.(check (float 1e-9)) "self speedup = 1" 1.0 (Runner.speedup ~base base)

let test_headline_hoard_scales_threadtest () =
  let base = Runner.run (Runner.spec tt hoard ~nprocs:1) in
  let at8 = Runner.run (Runner.spec tt hoard ~nprocs:8) in
  let sp = Runner.speedup ~base at8 in
  Alcotest.(check bool) (Printf.sprintf "hoard speedup %.2f >= 6 at 8P" sp) true (sp >= 6.0)

let test_headline_serial_collapses_threadtest () =
  let base = Runner.run (Runner.spec tt serial ~nprocs:1) in
  let at8 = Runner.run (Runner.spec tt serial ~nprocs:8) in
  let sp = Runner.speedup ~base at8 in
  Alcotest.(check bool) (Printf.sprintf "serial speedup %.2f < 1 at 8P" sp) true (sp < 1.0)

let test_headline_uniproc_overhead_small () =
  let s = Runner.run (Runner.spec tt serial ~nprocs:1) in
  let h = Runner.run (Runner.spec tt hoard ~nprocs:1) in
  let ratio = float_of_int h.Runner.r_cycles /. float_of_int s.Runner.r_cycles in
  Alcotest.(check bool) (Printf.sprintf "hoard/serial = %.2f within 25%%" ratio) true (ratio < 1.25)

let test_headline_hoard_fragmentation_low () =
  let r = Runner.run (Runner.spec tt hoard ~nprocs:4) in
  let frag = Runner.fragmentation r in
  Alcotest.(check bool) (Printf.sprintf "threadtest frag %.2f <= 3" frag) true (frag <= 3.0)

let test_experiment_registry_complete () =
  let ids = Experiments.ids () in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " registered") true (List.mem required ids))
    [
      "table1"; "table2"; "table3"; "table4"; "table5";
      "fig_threadtest"; "fig_shbench"; "fig_larson"; "fig_active_false"; "fig_passive_false";
      "fig_bem"; "fig_barnes"; "exp_blowup"; "exp_falseshare"; "exp_oversub"; "exp_latency";
      "exp_apps"; "exp_timeline"; "exp_costmodel"; "exp_numa"; "exp_contention";
      "abl_f"; "abl_k"; "abl_sbsize"; "abl_lock";
      "abl_nheaps";
    ]

let test_find () =
  Alcotest.(check bool) "finds" true (Experiments.find "table4" <> None);
  Alcotest.(check bool) "rejects unknown" true (Experiments.find "nope" = None)

let test_every_experiment_produces_tables () =
  (* Run each experiment at Quick scale with a tiny processor sweep; every
     one must yield at least one non-empty table. Heavy but the definitive
     smoke test that every table/figure can regenerate. *)
  List.iter
    (fun e ->
      let out = e.Experiments.run Experiments.Quick ~procs:(Some [ 1; 2 ]) in
      Alcotest.(check bool) (e.Experiments.id ^ " yields tables") true (List.length out.Experiments.tables > 0);
      List.iter
        (fun tbl ->
          let rendered = Table.render tbl in
          Alcotest.(check bool) (e.Experiments.id ^ " table non-trivial") true (String.length rendered > 40))
        out.Experiments.tables)
    (Experiments.all ())

let test_figures_carry_plots () =
  match Experiments.find "fig_threadtest" with
  | None -> Alcotest.fail "fig_threadtest missing"
  | Some e ->
    let out = e.Experiments.run Experiments.Quick ~procs:(Some [ 1; 2 ]) in
    (match out.Experiments.plot with
     | Some plot -> Alcotest.(check bool) "plot non-trivial" true (String.length plot > 200)
     | None -> Alcotest.fail "speedup figures must render a plot")

let test_workload_catalog () =
  List.iter
    (fun name ->
      match Experiments.workload name Experiments.Quick with
      | Some w -> Alcotest.(check bool) (name ^ " constructs") true (String.length w.Workload_intf.w_name > 0)
      | None -> Alcotest.fail (name ^ " missing from catalog"))
    Experiments.workload_names;
  Alcotest.(check bool) "unknown rejected" true (Experiments.workload "nope" Experiments.Quick = None)

let test_allocator_catalog () =
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " found") true (Experiments.allocator label <> None))
    [ "serial"; "concurrent-single"; "private-ownership"; "pure-private"; "private-threshold"; "hoard" ]

let test_latency_probe () =
  let sim = Sim.create ~nprocs:2 () in
  let pf = Sim.platform sim in
  let probe, a = Latency_probe.wrap ((Hoard.factory ()).Alloc_intf.instantiate pf) in
  for _ = 0 to 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 50 do
             a.Alloc_intf.free (a.Alloc_intf.malloc 64)
           done))
  done;
  Sim.run sim;
  let h = Latency_probe.malloc_latencies probe in
  Alcotest.(check int) "100 mallocs sampled" 100 (Histogram.count h);
  Alcotest.(check bool) "latencies positive" true (Histogram.mean h > 0.0);
  Alcotest.(check int) "frees sampled too" 100 (Histogram.count (Latency_probe.free_latencies probe))

let test_timeline_records () =
  let sim = Sim.create ~nprocs:1 () in
  let pf = Sim.platform sim in
  let tl, a = Timeline.wrap ~every:10 ((Hoard.factory ()).Alloc_intf.instantiate pf) in
  ignore
    (Sim.spawn sim (fun () ->
         let ps = List.init 100 (fun _ -> a.Alloc_intf.malloc 64) in
         List.iter a.Alloc_intf.free ps));
  Sim.run sim;
  let samples = Timeline.samples tl in
  Alcotest.(check int) "one sample per 10 ops" 20 (List.length samples);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Timeline.at <= b.Timeline.at && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone samples);
  Alcotest.(check bool) "peak held positive" true (Timeline.peak_held tl > 0)

let test_latency_probe_batch () =
  let sim = Sim.create ~nprocs:1 () in
  let pf = Sim.platform sim in
  let probe, a = Latency_probe.wrap ((Hoard.factory ()).Alloc_intf.instantiate pf) in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 10 do
           a.Alloc_intf.free_batch (a.Alloc_intf.malloc_batch 8 64)
         done;
         let p = a.Alloc_intf.malloc 32 in
         let p = a.Alloc_intf.realloc ~addr:p ~size:128 in
         a.Alloc_intf.free p));
  Sim.run sim;
  (* Whole-call timing: a batch of 8 is one sample, not eight. *)
  Alcotest.(check int) "batch mallocs timed" 10 (Histogram.count (Latency_probe.batch_malloc_latencies probe));
  Alcotest.(check int) "batch frees timed" 10 (Histogram.count (Latency_probe.batch_free_latencies probe));
  Alcotest.(check int) "reallocs timed" 1 (Histogram.count (Latency_probe.realloc_latencies probe));
  let m = Metrics.create () in
  Latency_probe.publish probe m;
  (match Metrics.get m ~name:"latency.batch.malloc" () with
   | Some (Metrics.Dist d) ->
     Alcotest.(check int) "gauge count" 10 d.Metrics.d_count;
     Alcotest.(check bool) "p999 populated" true (d.Metrics.d_p999 > 0)
   | _ -> Alcotest.fail "latency.batch.malloc gauge missing");
  match Metrics.get m ~name:"latency.realloc" () with
  | Some (Metrics.Dist d) -> Alcotest.(check int) "realloc gauge count" 1 d.Metrics.d_count
  | _ -> Alcotest.fail "latency.realloc gauge missing"

let test_timeline_resident () =
  let sim = Sim.create ~nprocs:1 () in
  let pf = Sim.platform sim in
  let tl, a = Timeline.wrap ~every:8 ((Hoard.factory ()).Alloc_intf.instantiate pf) in
  ignore
    (Sim.spawn sim (fun () ->
         let ps = List.init 64 (fun _ -> a.Alloc_intf.malloc 256) in
         List.iter a.Alloc_intf.free ps));
  Sim.run sim;
  Alcotest.(check bool) "resident sampled" true
    (List.exists (fun s -> s.Timeline.resident > 0) (Timeline.samples tl));
  List.iter
    (fun s ->
      Alcotest.(check bool) "live never exceeds held" true (s.Timeline.live <= s.Timeline.held);
      Alcotest.(check bool) "held never exceeds resident" true (s.Timeline.held <= s.Timeline.resident))
    (Timeline.samples tl);
  Alcotest.(check bool) "peak resident covers peak held" true
    (Timeline.peak_resident tl >= Timeline.peak_held tl);
  let plot = Timeline.plot ~metric:Timeline.Resident [ ("hoard", tl) ] ~title:"t" in
  Alcotest.(check bool) "plot labels the resident series" true (Astring.String.is_infix ~affix:"resident" plot)

(* --- the SLO layer --- *)

let small_server_params profile =
  { Server_mix.default_params with Server_mix.profile; requests = 200 }

(* A [--set vmem=] override reaches the simulator on every run path: the
   overridden factory names the backend, and the three backends lay the
   address space out differently, so each gives its own cycle count —
   the same one through the server harness, the plain runner and the
   instrumented pass, which build their machines from the factory. *)
let test_server_vmem_backend () =
  let params = { Server_mix.default_params with Server_mix.profile = Server_mix.Bursty; requests = 600 } in
  List.iter
    (fun (vmem, expected) ->
      let config = Config_cli.apply Hoard_config.default [ "vmem=" ^ vmem ] in
      let f =
        match Allocators.with_overrides (fun c -> Config_cli.apply c [ "vmem=" ^ vmem ]) "hoard" with
        | None -> Alcotest.fail "hoard has a config"
        | Some f -> f
      in
      Alcotest.(check string) "factory backend" vmem (Vmem_backend.kind_name f.Alloc_intf.vmem_backend);
      let server = (Slo.run_server ~params f ~nprocs:4).Slo.sv_cycles in
      let runner =
        (Runner.run (Runner.spec (Server_mix.make ~params ()) (Hoard.factory ~config ()) ~nprocs:4)).Runner.r_cycles
      in
      let obs = (Obs_run.run_workload ~config (Server_mix.make ~params ()) ~nprocs:4).Obs_run.b_cycles in
      List.iter
        (fun (path, cycles) -> Alcotest.(check int) (Printf.sprintf "%s cycles, vmem=%s" path vmem) expected cycles)
        [ ("Slo.run_server", server); ("Runner.run", runner); ("Obs_run.run_workload", obs) ])
    [ ("exact", 1_255_131); ("first-fit", 1_279_711); ("buddy", 1_246_704) ]

let test_slo_spec_roundtrip () =
  let src =
    {|{"name":"front","rules":[{"metric":"request","quantile":"p99","ceiling":50000},
       {"metric":"malloc","quantile":0.5,"ceiling":4000}],"rss_ceiling":1048576}|}
  in
  (match Slo.spec_of_string src with
   | Error e -> Alcotest.fail e
   | Ok spec ->
     Alcotest.(check string) "name" "front" spec.Slo.sp_name;
     Alcotest.(check int) "two rules" 2 (List.length spec.Slo.sp_rules);
     (match spec.Slo.sp_rules with
      | [ a; b ] ->
        Alcotest.(check string) "p99 alias decoded" "p99" (Slo.quantile_name a.Slo.ru_quantile);
        Alcotest.(check int) "ceiling" 50000 a.Slo.ru_ceiling;
        Alcotest.(check string) "numeric quantile decoded" "p50" (Slo.quantile_name b.Slo.ru_quantile)
      | _ -> Alcotest.fail "rules lost");
     Alcotest.(check (option int)) "rss ceiling" (Some 1048576) spec.Slo.sp_rss_ceiling);
  (match Slo.spec_of_string {|{"rules":[{"metric":"request","quantile":2.0,"ceiling":5}]}|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "quantile > 1 accepted");
  match Slo.spec_of_string {|{"name":"no rules"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing rules accepted"

let test_slo_evaluate_pass_and_fail () =
  let r = Slo.run_server ~params:(small_server_params Server_mix.Steady) (Allocators.hoard_fe ()) ~nprocs:4 in
  let rule metric q ceiling = { Slo.ru_metric = metric; ru_quantile = q; ru_ceiling = ceiling } in
  let generous =
    {
      Slo.sp_name = "generous";
      sp_rules = [ rule "request" 0.99 max_int; rule "malloc" 0.5 max_int ];
      sp_rss_ceiling = Some max_int;
    }
  in
  Alcotest.(check bool) "generous spec passes" true (Slo.evaluate generous r).Slo.rp_ok;
  let strict = { Slo.sp_name = "strict"; sp_rules = [ rule "request" 0.5 1 ]; sp_rss_ceiling = None } in
  let rep = Slo.evaluate strict r in
  Alcotest.(check bool) "1-cycle ceiling fails" false rep.Slo.rp_ok;
  (match rep.Slo.rp_checks with
   | [ c ] ->
     Alcotest.(check string) "check named" "request.p50" c.Slo.ck_name;
     Alcotest.(check bool) "observed recorded" true (c.Slo.ck_observed > 1)
   | _ -> Alcotest.fail "one check expected");
  (* A typo'd metric name must fail, not silently pass. *)
  let typo = { Slo.sp_name = "typo"; sp_rules = [ rule "requests" 0.5 max_int ]; sp_rss_ceiling = None } in
  Alcotest.(check bool) "unknown metric fails" false (Slo.evaluate typo r).Slo.rp_ok;
  let tbl = Table.render (Slo.report_table rep) in
  Alcotest.(check bool) "table shows verdict" true (Astring.String.is_infix ~affix:"VIOLATED" tbl)

let test_server_run_counts_and_determinism () =
  let run () = Slo.run_server ~params:(small_server_params Server_mix.Bursty) (Allocators.hoard_fe ()) ~nprocs:4 in
  let a = run () and b = run () in
  Alcotest.(check int) "all requests served" 200 (Server_mix.completed a.Slo.sv_recorder);
  (* The sink wires completions into the run's ring: drop-proof kind
     totals must agree with the recorder exactly. *)
  Alcotest.(check int) "ring req_done total" 200 (Obs.count_kind a.Slo.sv_obs Event_ring.Req_done);
  Alcotest.(check int) "ring req_arrival total" 200 (Obs.count_kind a.Slo.sv_obs Event_ring.Req_arrival);
  Alcotest.(check int) "cycles reproduce" a.Slo.sv_cycles b.Slo.sv_cycles;
  let p99 r = Histogram.percentile (Server_mix.request_latencies r.Slo.sv_recorder) 0.99 in
  Alcotest.(check int) "p99 reproduces" (p99 a) (p99 b);
  (* Open-loop latency is measured from scheduled arrival: with bursts
     outpacing service, the tail must exceed the median visibly. *)
  let h = Server_mix.request_latencies a.Slo.sv_recorder in
  Alcotest.(check bool) "queueing shows in the tail" true
    (Histogram.percentile h 0.99 > Histogram.percentile h 0.5)

(* The default bursty server mix (16-2,048 B requests, default seed) at
   64 processors, 4,096 requests, as `hoard_bench serve --profile bursty
   -p 64 --requests 4096` runs it: the lock-free global heap's median
   request must be no slower than the locked global heap's. Its index
   once put every entry push and pop of every class through one shared
   free-list word and read 73,728 cycles against hoard-fe's 30,720. *)
let test_server_mix_64p_gl_median () =
  let params = { Server_mix.default_params with Server_mix.profile = Server_mix.Bursty; requests = 4096 } in
  let p50 f =
    Histogram.percentile (Server_mix.request_latencies (Slo.run_server ~params f ~nprocs:64).Slo.sv_recorder) 0.5
  in
  let gl = p50 (Allocators.hoard_gl ()) and fe = p50 (Allocators.hoard_fe ()) in
  Alcotest.(check bool) (Printf.sprintf "hoard-gl p50 %d <= hoard-fe p50 %d" gl fe) true (gl <= fe)

let test_server_metrics_json_gate_shape () =
  let r = Slo.run_server ~params:(small_server_params Server_mix.Flash) (Allocators.hoard_fe ()) ~nprocs:4 in
  match Json_lite.parse (Slo.metrics_json r) with
  | Error e -> Alcotest.fail ("metrics JSON invalid: " ^ e)
  | Ok j ->
    (match Option.bind (Json_lite.member "run" j) (Json_lite.member "cycles") with
     | Some (Json_lite.Num c) -> Alcotest.(check bool) "cycles positive" true (c > 0.0)
     | _ -> Alcotest.fail "run.cycles missing");
    (match Option.bind (Json_lite.member "metrics" j) Json_lite.to_list with
     | None -> Alcotest.fail "metrics array missing"
     | Some ms ->
       (* The gate metric must be present, flat (summable) and labelled
          with the allocator it measures. *)
       let p99 =
         List.find_opt
           (fun m ->
             Option.bind (Json_lite.member "name" m) Json_lite.to_string = Some "slo.request.p99")
           ms
       in
       (match p99 with
        | None -> Alcotest.fail "slo.request.p99 missing"
        | Some m ->
          (match Option.bind (Json_lite.member "value" m) Json_lite.to_float with
           | Some v -> Alcotest.(check bool) "flat numeric value" true (v > 0.0)
           | None -> Alcotest.fail "p99 value not a number");
          (match Json_lite.member "labels" m with
           | Some labels ->
             Alcotest.(check (option string)) "allocator label" (Some "hoard-fe")
               (Option.bind (Json_lite.member "allocator" labels) Json_lite.to_string)
           | None -> Alcotest.fail "labels missing")))

let test_server_perfetto_export () =
  (* Satellite check, on a real 4-domain run: the trace round-trips
     through Json_lite, every counter track is monotone in ts, and
     instant counts match the rings' drop-proof totals. *)
  let r = Slo.run_server ~params:(small_server_params Server_mix.Bursty) (Allocators.hoard_fe ()) ~nprocs:4 in
  match Json_lite.parse (Slo.perfetto_json r) with
  | Error e -> Alcotest.fail ("trace JSON invalid: " ^ e)
  | Ok j ->
    (match Option.bind (Json_lite.member "traceEvents" j) Json_lite.to_list with
     | None -> Alcotest.fail "traceEvents missing"
     | Some events ->
       let field name e = Json_lite.member name e in
       let str_field name e = Option.bind (field name e) Json_lite.to_string in
       let num_field name e = Option.bind (field name e) Json_lite.to_float in
       let counters name =
         List.filter (fun e -> str_field "ph" e = Some "C" && str_field "name" e = Some name) events
       in
       List.iter
         (fun track ->
           let ts = List.filter_map (num_field "ts") (counters track) in
           Alcotest.(check bool) (track ^ " track non-empty") true (ts <> []);
           let rec monotone = function
             | a :: (b :: _ as rest) -> a <= b && monotone rest
             | _ -> true
           in
           Alcotest.(check bool) (track ^ " ts monotone") true (monotone ts))
         [ "request.latency"; "memory KiB" ];
       (* Request spans: one per recorded sample. *)
       let spans = List.filter (fun e -> str_field "ph" e = Some "X" && str_field "name" e = Some "request") events in
       Alcotest.(check int) "one span per request" 200 (List.length spans);
       (* Ring instants: exactly the retained events, kind by kind. *)
       let instants kind_name =
         List.length
           (List.filter
              (fun e -> str_field "ph" e = Some "i" && str_field "name" e = Some kind_name)
              events)
       in
       List.iter
         (fun (_, ring) ->
           List.iter
             (fun kind ->
               let retained = ref 0 in
               Event_ring.iter ring (fun e -> if e.Event_ring.kind = kind then incr retained);
               if !retained > 0 then
                 Alcotest.(check bool)
                   (Event_ring.kind_name kind ^ " instants cover ring")
                   true
                   (instants (Event_ring.kind_name kind) >= !retained))
             Event_ring.all_kinds)
         (Obs.rings r.Slo.sv_obs);
       Alcotest.(check int) "req_done instants match drop-proof total" 200 (instants "req_done"))

let test_error_in_simulated_thread_surfaces () =
  (* A double free inside the simulation must abort the run with the
     allocator's own error, not corrupt state silently. *)
  let sim = Sim.create ~nprocs:1 () in
  let a = (Hoard.factory ()).Alloc_intf.instantiate (Sim.platform sim) in
  ignore
    (Sim.spawn sim (fun () ->
         let p = a.Alloc_intf.malloc 64 in
         a.Alloc_intf.free p;
         a.Alloc_intf.free p));
  Alcotest.check_raises "double free surfaces" (Failure "Superblock.free_block: double free") (fun () ->
      Sim.run sim)

let test_csv_export () =
  match Experiments.find "table2" with
  | None -> Alcotest.fail "table2 missing"
  | Some e ->
    let out = e.Experiments.run Experiments.Quick ~procs:None in
    List.iter
      (fun tbl ->
        let csv = Table.to_csv tbl in
        Alcotest.(check bool) "csv has header and rows" true (List.length (String.split_on_char '\n' csv) > 2))
      out.Experiments.tables

(* The shared processor-count converters: well-formed input parses,
   anything else is a parse error (a Cmdliner usage error), never an
   exception. *)
let test_procs_converter () =
  let one = Cmdliner.Arg.conv_parser Config_cli.nprocs in
  Alcotest.(check bool) "-p 8" true (one "8" = Ok 8);
  List.iter
    (fun s -> Alcotest.(check bool) ("-p " ^ s ^ " rejected") true (Result.is_error (one s)))
    [ "0"; "-1"; "abc"; "2,4" ];
  let parse = Cmdliner.Arg.conv_parser Config_cli.procs in
  let ok s expected =
    match parse s with
    | Ok ns -> Alcotest.(check (list int)) s expected ns
    | Error (`Msg m) -> Alcotest.fail (Printf.sprintf "%S rejected: %s" s m)
  in
  ok "8" [ 8 ];
  ok "1,2,4" [ 1; 2; 4 ];
  ok " 1, 16 " [ 1; 16 ];
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s)
      | Error (`Msg m) ->
        Alcotest.(check bool) (s ^ ": message names the count") true
          (Astring.String.is_infix ~affix:"bad processor count" m))
    [ "abc"; "0"; "-1"; ""; "1,,2"; "4,x" ];
  Alcotest.(check string) "prints back" "1,2,4"
    (Format.asprintf "%a" (Cmdliner.Arg.conv_printer Config_cli.procs) [ 1; 2; 4 ])

(* The bounded integer converters behind the CLIs' count and capacity
   flags: in-range input parses, anything else is a parse error, and a
   command using them exits 124 (Cmdliner's usage error) on it. *)
let test_bounded_int_converters () =
  let positive = Cmdliner.Arg.conv_parser Config_cli.positive in
  let non_negative = Cmdliner.Arg.conv_parser Config_cli.non_negative in
  Alcotest.(check bool) "positive 1" true (positive "1" = Ok 1);
  Alcotest.(check bool) "positive 10000" true (positive " 10000 " = Ok 10000);
  Alcotest.(check bool) "non_negative 0" true (non_negative "0" = Ok 0);
  Alcotest.(check bool) "non_negative 16" true (non_negative "16" = Ok 16);
  List.iter
    (fun s -> Alcotest.(check bool) ("positive " ^ s ^ " rejected") true (Result.is_error (positive s)))
    [ "0"; "-3"; "abc"; "" ];
  List.iter
    (fun s -> Alcotest.(check bool) ("non_negative " ^ s ^ " rejected") true (Result.is_error (non_negative s)))
    [ "-4"; "-1"; "x"; "1.5" ];
  let exit_code converter argv =
    let open Cmdliner in
    let n = Arg.(value & opt converter 1 & info [ "count" ]) in
    let cmd = Cmd.v (Cmd.info "t") Term.(const (fun (_ : int) -> ()) $ n) in
    Cmd.eval ~argv:(Array.append [| "t" |] argv) ~err:(Format.make_formatter (fun _ _ _ -> ()) ignore) cmd
  in
  Alcotest.(check int) "--count=0 accepted" 0 (exit_code Config_cli.non_negative [| "--count=0" |]);
  Alcotest.(check int) "--count=-4 is a usage error" 124 (exit_code Config_cli.non_negative [| "--count=-4" |]);
  Alcotest.(check int) "--count=0 is a usage error" 124 (exit_code Config_cli.positive [| "--count=0" |])

(* Configuration errors are usage errors: a bad [--set] value and a
   sweep-style knob flag out of range both go through [Config_cli.config],
   exit 124 and carry the registry's message. *)
let test_config_errors_are_usage_errors () =
  let open Cmdliner in
  let overrides =
    Term.(
      const (fun f s sets -> f @ s @ sets)
      $ Config_cli.knob_flag ~knob:"empty-fraction" [ "f" ] ~doc:"f"
      $ Config_cli.knob_flag ~knob:"sb-size" [ "sbsize" ] ~doc:"S"
      $ Config_cli.set_opt)
  in
  let seen = ref None in
  let exit_code argv =
    seen := None;
    let cmd =
      Cmd.v (Cmd.info "t")
        Term.(const (fun c -> seen := Some c) $ Config_cli.config Hoard_config.default overrides)
    in
    Cmd.eval ~argv:(Array.append [| "t" |] argv) ~err:(Format.make_formatter (fun _ _ _ -> ()) ignore) cmd
  in
  Alcotest.(check int) "-f 0.5 accepted" 0 (exit_code [| "-f"; "0.5" |]);
  Alcotest.(check bool) "-f lands on empty-fraction" true
    (Option.map (fun c -> c.Hoard_config.empty_fraction) !seen = Some 0.5);
  Alcotest.(check int) "--set applies after the flags" 0
    (exit_code [| "--sbsize"; "4096"; "--set"; "sb-size=16384" |]);
  Alcotest.(check bool) "--set wins" true (Option.map (fun c -> c.Hoard_config.sb_size) !seen = Some 16384);
  List.iter
    (fun argv ->
      Alcotest.(check int) (String.concat " " (Array.to_list argv) ^ " is a usage error") 124 (exit_code argv);
      Alcotest.(check bool) "command body not run" true (!seen = None))
    [
      [| "-f"; "2.0" |];
      [| "-f"; "abc" |];
      [| "--sbsize"; "100" |];
      [| "--set"; "front-end=1" |];
      [| "--set"; "bogus=1" |];
    ];
  let message overrides =
    match Config_cli.resolve Hoard_config.default overrides with
    | Ok _ -> Alcotest.fail (String.concat " " overrides ^ " must be rejected")
    | Error m -> m
  in
  List.iter
    (fun (overrides, affix) ->
      Alcotest.(check bool) (affix ^ " reported") true (Astring.String.is_infix ~affix (message overrides)))
    [
      ([ "empty-fraction=2.0" ], "empty-fraction must lie in (0, 1)");
      ([ "sb-size=100" ], "sb-size must be a power of two");
      ([ "front-end=1" ], "front-end must be 0 or >= 2");
      ([ "bogus=1" ], "unknown knob");
    ]

(* The CLIs' file helpers: a bad path is an [Error "path: reason"],
   never an exception, and a good one round-trips. *)
let test_file_errors_are_values () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "hoard-no-such-dir/x.json" in
  let expect_error what path = function
    | Ok _ -> Alcotest.failf "%s %s must fail" what path
    | Error m ->
      Alcotest.(check bool) (Printf.sprintf "%s error %S names the path" what m) true
        (String.starts_with ~prefix:(path ^ ": ") m)
  in
  expect_error "read" missing (Config_cli.read_file missing);
  expect_error "write" missing (Config_cli.write_file missing "{}");
  expect_error "writable" missing (Config_cli.writable missing);
  let dir = Filename.get_temp_dir_name () in
  expect_error "read of a directory" dir (Config_cli.read_file dir);
  let tmp = Filename.temp_file "hoard-cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Alcotest.(check bool) "write ok" true (Config_cli.write_file tmp "{\"a\":1}" = Ok ());
      Alcotest.(check bool) "writable" true (Config_cli.writable tmp = Ok ());
      Alcotest.(check bool) "writable leaves the contents" true (Config_cli.read_file tmp = Ok "{\"a\":1}"))

let () =
  Alcotest.run "harness"
    [
      ( "cli",
        [
          Alcotest.test_case "procs converter" `Quick test_procs_converter;
          Alcotest.test_case "bounded int converters" `Quick test_bounded_int_converters;
          Alcotest.test_case "config errors are usage errors" `Quick test_config_errors_are_usage_errors;
          Alcotest.test_case "file errors are values" `Quick test_file_errors_are_values;
        ] );
      ( "runner",
        [
          Alcotest.test_case "basic" `Quick test_runner_basic;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "speedup metric" `Quick test_speedup_metric;
        ] );
      ( "headline-shapes",
        [
          Alcotest.test_case "hoard scales" `Quick test_headline_hoard_scales_threadtest;
          Alcotest.test_case "serial collapses" `Quick test_headline_serial_collapses_threadtest;
          Alcotest.test_case "uniproc overhead" `Quick test_headline_uniproc_overhead_small;
          Alcotest.test_case "fragmentation low" `Quick test_headline_hoard_fragmentation_low;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_experiment_registry_complete;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "figures carry plots" `Quick test_figures_carry_plots;
          Alcotest.test_case "workload catalog" `Quick test_workload_catalog;
          Alcotest.test_case "allocator catalog" `Quick test_allocator_catalog;
          Alcotest.test_case "latency probe" `Quick test_latency_probe;
          Alcotest.test_case "latency probe batch ops" `Quick test_latency_probe_batch;
          Alcotest.test_case "timeline records" `Quick test_timeline_records;
          Alcotest.test_case "timeline resident" `Quick test_timeline_resident;
          Alcotest.test_case "errors surface" `Quick test_error_in_simulated_thread_surfaces;
          Alcotest.test_case "all experiments regenerate" `Slow test_every_experiment_produces_tables;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec round-trip" `Quick test_slo_spec_roundtrip;
          Alcotest.test_case "evaluate pass/fail" `Quick test_slo_evaluate_pass_and_fail;
          Alcotest.test_case "server counts + determinism" `Quick test_server_run_counts_and_determinism;
          Alcotest.test_case "gate metrics shape" `Quick test_server_metrics_json_gate_shape;
          Alcotest.test_case "default mix at 64P: hoard-gl median within hoard-fe's" `Quick
            test_server_mix_64p_gl_median;
          Alcotest.test_case "perfetto export" `Quick test_server_perfetto_export;
          Alcotest.test_case "vmem override reaches the simulator" `Quick test_server_vmem_backend;
        ] );
    ]
