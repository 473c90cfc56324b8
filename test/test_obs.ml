(* The observability layer: event rings, the metrics registry, the JSON
   validator, Perfetto export, the heatmap, and — the load-bearing part —
   the event-count invariants: ring per-kind totals must equal the
   Alloc_stats counter deltas, on the simulator and under real domains,
   and instrumentation must not change a simulated run's timing. *)

(* --- event rings --- *)

let test_ring_basic () =
  let r = Event_ring.create ~capacity:8 in
  Alcotest.(check int) "capacity" 8 (Event_ring.capacity r);
  for i = 1 to 5 do
    Event_ring.record r ~at:(10 * i) ~kind:Event_ring.Sb_map ~who:0 ~heap:1 ~sclass:2 ~arg:i
  done;
  Alcotest.(check int) "recorded" 5 (Event_ring.recorded r);
  Alcotest.(check int) "retained" 5 (Event_ring.retained r);
  Alcotest.(check int) "dropped" 0 (Event_ring.dropped r);
  let events = Event_ring.to_list r in
  Alcotest.(check int) "list length" 5 (List.length events);
  let first = List.hd events in
  Alcotest.(check int) "oldest first" 10 first.Event_ring.at;
  Alcotest.(check int) "payload" 1 first.Event_ring.arg

let test_ring_wrap_exact_counts () =
  let r = Event_ring.create ~capacity:8 in
  for i = 1 to 20 do
    let kind = if i mod 3 = 0 then Event_ring.Remote_free else Event_ring.Sb_from_global in
    Event_ring.record r ~at:i ~kind ~who:(i mod 4) ~heap:0 ~sclass:0 ~arg:i
  done;
  Alcotest.(check int) "recorded survives wrap" 20 (Event_ring.recorded r);
  Alcotest.(check int) "retained = capacity" 8 (Event_ring.retained r);
  Alcotest.(check int) "dropped" 12 (Event_ring.dropped r);
  (* Per-kind totals are exact even though 12 events were overwritten. *)
  Alcotest.(check int) "remote_free kind total" 6 (Event_ring.recorded_kind r Event_ring.Remote_free);
  Alcotest.(check int) "from_global kind total" 14 (Event_ring.recorded_kind r Event_ring.Sb_from_global);
  (* iter sees only the newest [capacity] events, oldest first. *)
  let ats = ref [] in
  Event_ring.iter r (fun e -> ats := e.Event_ring.at :: !ats);
  Alcotest.(check (list int)) "newest window, oldest first" [ 20; 19; 18; 17; 16; 15; 14; 13 ] !ats

let test_kind_names_distinct () =
  let names = List.map Event_ring.kind_name Event_ring.all_kinds in
  Alcotest.(check int) "all kinds named uniquely" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The event taxonomy in docs/observability.md is the table of first
   cells under its "| kind | meaning |" header; it must name exactly the
   kinds [Event_ring.all_kinds] does, in either direction. *)
let test_kind_table_documented () =
  let lines =
    In_channel.with_open_text "../docs/observability.md" In_channel.input_all |> String.split_on_char '\n'
  in
  let rec table = function
    | [] -> Alcotest.fail "observability.md: event-kind table not found"
    | l :: rest when Astring.String.is_prefix ~affix:"| kind | meaning |" l -> rows rest
    | _ :: rest -> table rest
  and rows = function
    | l :: rest when Astring.String.is_prefix ~affix:"|" l ->
      (match String.split_on_char '`' l with
       | _ :: name :: _ -> name :: rows rest
       | _ -> rows rest (* the |---| rule *))
    | _ -> []
  in
  let documented = List.sort compare (table lines) in
  let code = List.sort compare (List.map Event_ring.kind_name Event_ring.all_kinds) in
  let missing l from = List.filter (fun n -> not (List.mem n from)) l in
  Alcotest.(check (list string)) "kinds missing from the doc table" [] (missing code documented);
  Alcotest.(check (list string)) "doc table rows that are not kinds" [] (missing documented code);
  Alcotest.(check int) "one row per kind" (List.length code) (List.length documented)

(* --- metrics registry --- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.register m ~name:"answer" (fun () -> Metrics.Int 42);
  Metrics.register m ~name:"ratio" (fun () -> Metrics.Float 1.5);
  let c = Metrics.counter m ~name:"hits" () in
  incr c;
  incr c;
  Metrics.register m ~name:"per_heap" ~labels:[ ("heap", "1") ] (fun () -> Metrics.Int 1);
  Metrics.register m ~name:"per_heap" ~labels:[ ("heap", "2") ] (fun () -> Metrics.Int 2);
  Alcotest.(check int) "snapshot size" 5 (List.length (Metrics.snapshot m));
  (match Metrics.get m ~name:"hits" () with
   | Some (Metrics.Int 2) -> ()
   | _ -> Alcotest.fail "counter readback");
  (match Metrics.get m ~name:"per_heap" ~labels:[ ("heap", "2") ] () with
   | Some (Metrics.Int 2) -> ()
   | _ -> Alcotest.fail "labelled readback");
  Alcotest.check_raises "duplicate rejected" (Invalid_argument "Metrics.register: duplicate metric \"answer\"")
    (fun () -> Metrics.register m ~name:"answer" (fun () -> Metrics.Int 0))

let test_metrics_json_parses () =
  let m = Metrics.create () in
  Metrics.register m ~name:"n" (fun () -> Metrics.Int 7);
  Metrics.register m ~name:"lat" (fun () ->
      Metrics.Dist { Metrics.d_count = 3; d_mean = 2.5; d_p50 = 2; d_p95 = 4; d_p99 = 4; d_p999 = 4; d_max = 4 });
  Metrics.register m ~name:"esc\"aped" ~labels:[ ("k", "v\\w") ] (fun () -> Metrics.Float 0.5);
  match Json_lite.parse (Metrics.to_json m) with
  | Error e -> Alcotest.fail ("metrics JSON invalid: " ^ e)
  | Ok j ->
    (match Json_lite.to_list j with
     | Some entries ->
       Alcotest.(check int) "one object per metric" 3 (List.length entries);
       let first = List.hd entries in
       (match Option.bind (Json_lite.member "value" first) Json_lite.to_float with
        | Some v -> Alcotest.(check (float 1e-9)) "int value round-trips" 7.0 v
        | None -> Alcotest.fail "value field missing")
     | None -> Alcotest.fail "not an array")

let test_metrics_csv () =
  let m = Metrics.create () in
  Metrics.register m ~name:"n" (fun () -> Metrics.Int 7);
  Metrics.register m ~name:"lat" (fun () ->
      Metrics.Dist { Metrics.d_count = 1; d_mean = 2.0; d_p50 = 2; d_p95 = 2; d_p99 = 2; d_p999 = 2; d_max = 2 });
  let csv = Metrics.to_csv m in
  Alcotest.(check bool) "has header" true (String.length csv > 0);
  Alcotest.(check bool) "dist flattened" true
    (String.split_on_char '\n' csv |> List.exists (fun l -> String.length l >= 7 && String.sub l 0 7 = "lat.p50"))

(* --- Json_lite --- *)

let test_json_valid () =
  List.iter
    (fun s ->
      match Json_lite.parse s with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%S should parse: %s" s e))
    [
      "null"; "true"; "[]"; "{}"; "[1, -2.5, 3e2, 0.125]"; "{\"a\": [{\"b\": \"c\\nd\"}], \"e\": false}";
      "\"\\u0041\\\"\"";
    ]

let test_json_invalid () =
  List.iter
    (fun s ->
      match Json_lite.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" s)
      | Error _ -> ())
    [ ""; "{"; "[1"; "tru"; "1 2"; "{\"a\"}"; "[1,]"; "\"unterminated" ]

let test_json_accessors () =
  match Json_lite.parse "{\"xs\": [1, 2], \"s\": \"hi\"}" with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (option string)) "string member" (Some "hi")
      (Option.bind (Json_lite.member "s" j) Json_lite.to_string);
    (match Option.bind (Json_lite.member "xs" j) Json_lite.to_list with
     | Some [ a; _ ] -> Alcotest.(check (option (float 1e-9))) "number" (Some 1.0) (Json_lite.to_float a)
     | _ -> Alcotest.fail "array member");
    Alcotest.(check bool) "missing member" true (Json_lite.member "nope" j = None)

(* --- Perfetto --- *)

let test_perfetto_json () =
  let p = Perfetto.create () in
  Perfetto.process_name p ~pid:0 "machine";
  Perfetto.thread_name p ~pid:0 ~tid:1 "proc1";
  Perfetto.instant p ~name:"sb_map" ~cat:"ring.heap1" ~ts:10 ~pid:0 ~tid:1
    ~args:[ ("bytes", "8192"); ("label", Perfetto.str "a\"b") ]
    ();
  Perfetto.span p ~name:"hoard.heap1" ~cat:"lock" ~ts:20 ~dur:5 ~pid:0 ~tid:1 ();
  Perfetto.counter p ~name:"held" ~ts:30 ~pid:0 ~series:[ ("bytes", 4096) ];
  Alcotest.(check int) "event count" 5 (Perfetto.event_count p);
  match Json_lite.parse (Perfetto.to_json p) with
  | Error e -> Alcotest.fail ("trace JSON invalid: " ^ e)
  | Ok j ->
    (match Option.bind (Json_lite.member "traceEvents" j) Json_lite.to_list with
     | Some events -> Alcotest.(check int) "traceEvents length" 5 (List.length events)
     | None -> Alcotest.fail "traceEvents missing")

(* --- heatmap --- *)

let test_heatmap_render () =
  let s =
    Heatmap.render ~title:"t" ~ncols:4
      ~rows:[ ("alpha", [ Some 0.0; Some 0.55; Some 1.0 ]); ("b", [ None; Some 0.99 ]) ]
      ~legend:"legend line" ()
  in
  Alcotest.(check bool) "title" true (String.length s > 0);
  let has sub =
    let n = String.length sub in
    let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "row label" true (has "alpha");
  Alcotest.(check bool) "zero decile" true (has "05");
  (* 1.0 clamps into the top decile, padding fills with '-' *)
  Alcotest.(check bool) "full + padded cells" true (has "9-");
  Alcotest.(check bool) "legend appended" true (has "legend line")

(* --- Obs context --- *)

let test_obs_rings_registry () =
  let o = Obs.create ~config:{ Obs.ring_capacity = 16 } () in
  let r1 = Obs.new_ring o "heap1" in
  let _r2 = Obs.new_ring o "large" in
  Alcotest.(check int) "two rings" 2 (List.length (Obs.rings o));
  Alcotest.(check bool) "find" true
    (match Obs.find_ring o "heap1" with Some r -> r == r1 | None -> false);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Obs.new_ring o "heap1");
       false
     with Invalid_argument _ -> true);
  Event_ring.record r1 ~at:1 ~kind:Event_ring.Sb_map ~who:0 ~heap:1 ~sclass:0 ~arg:0;
  Alcotest.(check int) "total recorded" 1 (Obs.total_recorded o);
  Alcotest.(check int) "kind count" 1 (Obs.count_kind o Event_ring.Sb_map);
  (* Ring counts are published to the registry. *)
  match Metrics.get (Obs.metrics o) ~name:"obs.events" ~labels:[ ("ring", "heap1") ] () with
  | Some (Metrics.Int 1) -> ()
  | _ -> Alcotest.fail "obs.events{ring=heap1} gauge"

(* --- ring/stats invariants on the simulator --- *)

(* The event-count invariants, in the order docs/observability.md lists
   them: the ring side is the [count] of some kinds (exact after
   wrap-around) or the sum of one kind's retained [args] (one event per
   batch, its block count in [arg]); the other side is a snapshot field.
   Exact on any traced run whose quiescent flush finds no heap to trim
   (its trim counts [sb_to_global] without recording). *)
type ring_side = Count of Event_ring.kind list | Args of Event_ring.kind

let invariants : (ring_side * string * (Alloc_stats.snapshot -> int)) list =
  let open Event_ring in
  [
    (Count [ Sb_to_global ], "sb_to_global", fun s -> s.sb_to_global);
    (Count [ Sb_from_global ], "sb_from_global", fun s -> s.sb_from_global);
    (Count [ Remote_free ], "remote_frees", fun s -> s.remote_frees);
    (Count [ Cache_hit ], "cache_hits", fun s -> s.cache_hits);
    (Count [ Remote_forward ], "remote_forwards", fun s -> s.remote_forwards);
    (Count [ Large_map ], "large_maps", fun s -> s.large_maps);
    (Count [ Large_cache_hit ], "large_cache_hits", fun s -> s.large_cache_hits);
    (Count [ Deferred_enqueue ], "deferred_enqueues", fun s -> s.deferred_enqueues);
    (Count [ Deferred_reclaim ], "deferred_reclaims", fun s -> s.deferred_reclaims);
    (Count [ Orphan_adopt ], "orphan_adoptions", fun s -> s.orphan_adoptions);
    (Count [ Global_push ], "global_pushes", fun s -> s.global_pushes);
    (Count [ Global_pop ], "global_pops", fun s -> s.global_pops);
    (Count [ Global_busy_miss ], "global_busy_misses", fun s -> s.global_busy_misses);
    (Args Cache_flush, "cache_flushes", fun s -> s.cache_flushes);
    (Args Remote_enqueue, "remote_enqueues", fun s -> s.remote_enqueues);
    (Count [ Sb_map; Large_map ], "os_maps", fun s -> s.os_maps);
    (Count [ Sb_unmap; Large_unmap ], "os_unmaps", fun s -> s.os_unmaps);
    (Count [ Decommit ], "decommits", fun s -> s.decommits);
    (Count [ Recommit ], "recommits", fun s -> s.recommits);
  ]

(* One invariant as the doc writes it, single-spaced. *)
let invariant_line (side, field, _) =
  let lhs =
    match side with
    | Count kinds -> "count " ^ String.concat " + " (List.map Event_ring.kind_name kinds)
    | Args kind -> "args " ^ Event_ring.kind_name kind
  in
  Printf.sprintf "%s == stats.%s" lhs field

let check_ring_stats_invariants ~msg obs (s : Alloc_stats.snapshot) =
  Alcotest.(check int) (msg ^ ": no ring dropped an event") 0 (Obs.total_dropped obs);
  let args kind =
    let n = ref 0 in
    List.iter
      (fun (_, r) -> Event_ring.iter r (fun e -> if e.Event_ring.kind = kind then n := !n + e.Event_ring.arg))
      (Obs.rings obs);
    !n
  in
  List.iter
    (fun ((side, _, field) as inv) ->
      let ring =
        match side with
        | Count kinds -> List.fold_left (fun acc kind -> acc + Obs.count_kind obs kind) 0 kinds
        | Args kind -> args kind
      in
      Alcotest.(check int) (msg ^ ": " ^ invariant_line inv) (field s) ring)
    invariants

(* The "Event-count invariants" block of docs/observability.md is the
   list [check_ring_stats_invariants] checks, line for line. *)
let test_invariants_documented () =
  let lines =
    In_channel.with_open_text "../docs/observability.md" In_channel.input_all |> String.split_on_char '\n'
  in
  let single l = String.concat " " (List.filter (( <> ) "") (String.split_on_char ' ' l)) in
  let rec section = function
    | [] -> Alcotest.fail "observability.md: event-count invariants not found"
    | "## Event-count invariants" :: rest -> block rest
    | _ :: rest -> section rest
  and block = function
    | [] -> Alcotest.fail "observability.md: no invariant block"
    | "```" :: rest -> body rest
    | _ :: rest -> block rest
  and body = function
    | [] | "```" :: _ -> []
    | l :: rest -> single l :: body rest
  in
  Alcotest.(check (list string)) "documented invariants" (List.map invariant_line invariants) (section lines)

(* Latency probe + timeline + event rings composed on one simulated run,
   with traffic crafted to produce remote frees and large objects. *)
let test_sim_composition () =
  let nprocs = 2 and blocks = 120 in
  let sim = Sim.create ~nprocs () in
  let pf = Sim.platform sim in
  let obs = Obs.create () in
  let hoard = Hoard.create ~obs pf in
  let probe, a = Latency_probe.wrap (Hoard.allocator hoard) in
  let tl, a = Timeline.wrap ~every:16 a in
  let slots = Array.make blocks 0 in
  let b = Sim.new_barrier sim ~parties:2 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         for i = 0 to blocks - 1 do
           slots.(i) <- a.Alloc_intf.malloc 64
         done;
         let big = a.Alloc_intf.malloc 100_000 in
         Sim.barrier_wait b;
         a.Alloc_intf.free big));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         (* Frees into proc 0's heap: remote. *)
         Array.iter a.Alloc_intf.free slots));
  Sim.run sim;
  a.Alloc_intf.check ();
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "probe saw every malloc" s.Alloc_stats.mallocs
    (Histogram.count (Latency_probe.malloc_latencies probe));
  Alcotest.(check bool) "timeline sampled" true (List.length (Timeline.samples tl) > 0);
  Alcotest.(check bool) "remote frees happened" true (s.Alloc_stats.remote_frees > 0);
  Alcotest.(check bool) "large path exercised" true (Obs.count_kind obs Event_ring.Large_map = 1);
  check_ring_stats_invariants ~msg:"sim" obs s

(* Instrumentation must not perturb the simulation: an instrumented run
   reports exactly the cycles of an uninstrumented one. *)
let test_instrumentation_free () =
  let w = Experiments.obs_workload "fig_threadtest" Experiments.Quick in
  let plain = Runner.run (Runner.spec w (Hoard.factory ()) ~nprocs:4) in
  let b = Obs_run.run_workload w ~nprocs:4 in
  Alcotest.(check int) "same cycles with tracing on" plain.Runner.r_cycles b.Obs_run.b_cycles;
  Alcotest.(check bool) "and events were recorded" true (Obs.total_recorded b.Obs_run.b_obs > 0)

let test_obs_run_bundle () =
  let w = Experiments.obs_workload "fig_threadtest" Experiments.Quick in
  let b = Obs_run.run_workload w ~nprocs:4 in
  check_ring_stats_invariants ~msg:"bundle" b.Obs_run.b_obs b.Obs_run.b_stats;
  (* Perfetto export parses and has one event per recorded artefact. *)
  (match Json_lite.parse b.Obs_run.b_perfetto with
   | Error e -> Alcotest.fail ("perfetto: " ^ e)
   | Ok j ->
     (match Option.bind (Json_lite.member "traceEvents" j) Json_lite.to_list with
      | Some evs -> Alcotest.(check bool) "trace has events" true (List.length evs > 0)
      | None -> Alcotest.fail "traceEvents missing"));
  (* Metrics JSON parses, and its counters agree with the snapshot. *)
  (match Json_lite.parse (Obs_run.metrics_json b) with
   | Error e -> Alcotest.fail ("metrics: " ^ e)
   | Ok j ->
     let metric name =
       match Option.bind (Json_lite.member "metrics" j) Json_lite.to_list with
       | None -> Alcotest.fail "metrics array missing"
       | Some ms ->
         (match
            List.find_opt
              (fun m ->
                match Option.bind (Json_lite.member "name" m) Json_lite.to_string with
                | Some n -> n = name
                | None -> false)
              ms
          with
          | Some m ->
            (match Option.bind (Json_lite.member "value" m) Json_lite.to_float with
             | Some v -> int_of_float v
             | None -> Alcotest.fail (name ^ " has no numeric value"))
          | None -> Alcotest.fail (name ^ " not exported"))
     in
     Alcotest.(check int) "alloc.sb_to_global" b.Obs_run.b_stats.Alloc_stats.sb_to_global
       (metric "alloc.sb_to_global");
     Alcotest.(check int) "alloc.sb_from_global" b.Obs_run.b_stats.Alloc_stats.sb_from_global
       (metric "alloc.sb_from_global");
     Alcotest.(check int) "alloc.remote_frees" b.Obs_run.b_stats.Alloc_stats.remote_frees
       (metric "alloc.remote_frees"));
  (* Contention entries cover every simulated lock. *)
  Alcotest.(check int) "contention entries = locks" (List.length b.Obs_run.b_lock_stats)
    (List.length b.Obs_run.b_contention);
  Alcotest.(check bool) "heatmap rendered" true (String.length b.Obs_run.b_heatmap > 0)

(* Threadtest's threads never retire, so the quiescent drain after the
   run finds full caches: it must not add them to [cache_flushes], which
   counts only the flushes running threads made and recorded. *)
let test_teardown_not_a_flush () =
  let w = Experiments.obs_workload "fig_threadtest" Experiments.Quick in
  let b = Obs_run.run_workload ~config:({ Hoard_config.default with front_end = 16 }) w ~nprocs:4 in
  let recorded = ref 0 in
  List.iter
    (fun (_, r) ->
      Event_ring.iter r (fun e -> if e.Event_ring.kind = Event_ring.Cache_flush then recorded := !recorded + e.arg))
    (Obs.rings b.Obs_run.b_obs);
  Alcotest.(check int) "no ring dropped an event" 0 (Obs.total_dropped b.Obs_run.b_obs);
  Alcotest.(check bool) "caches flushed during the run" true (!recorded > 0);
  Alcotest.(check int) "args cache_flush == stats.cache_flushes" !recorded b.Obs_run.b_stats.Alloc_stats.cache_flushes

let test_obs_run_deterministic () =
  let w = Experiments.obs_workload "fig_threadtest" Experiments.Quick in
  let a = Obs_run.run_workload w ~nprocs:4 in
  let b = Obs_run.run_workload w ~nprocs:4 in
  Alcotest.(check int) "cycles" a.Obs_run.b_cycles b.Obs_run.b_cycles;
  Alcotest.(check int) "events" (Obs.total_recorded a.Obs_run.b_obs) (Obs.total_recorded b.Obs_run.b_obs);
  Alcotest.(check string) "perfetto byte-identical" a.Obs_run.b_perfetto b.Obs_run.b_perfetto

(* Each thread mallocs small blocks of two classes and one large object,
   twice over; frees the large object (the second malloc can take it
   back from a large cache) and, after a barrier, its neighbour's blocks
   (cache evictions onto the owners' channels); then retires through
   [thread_exit], which flushes its cache and hands its heap's
   superblocks to the global heap. No cache survives to the quiescent
   flush, and no ring wraps. *)
let exit_mix =
  let per_thread = 200 in
  let spawn sim (_ : Platform.t) (a : Alloc_intf.t) ~nthreads =
    let slots = Array.init nthreads (fun _ -> Array.make per_thread 0) in
    let b = Sim.new_barrier sim ~parties:nthreads in
    for d = 0 to nthreads - 1 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 2 do
               let big = a.Alloc_intf.malloc 40_000 in
               for i = 0 to per_thread - 1 do
                 slots.(d).(i) <- a.Alloc_intf.malloc (if i mod 2 = 0 then 16 else 96)
               done;
               a.Alloc_intf.free big;
               Sim.barrier_wait b;
               Array.iter a.Alloc_intf.free slots.((d + 1) mod nthreads);
               Sim.barrier_wait b
             done;
             a.Alloc_intf.thread_exit ()))
    done
  in
  {
    Workload_intf.w_name = "exit-mix";
    w_describe = "small and large objects freed by a neighbour, then thread_exit";
    spawn;
    total_ops = (fun ~nthreads -> 2 * nthreads * ((2 * per_thread) + 2));
  }

let test_front_end_invariants () =
  List.iter
    (fun (name, config) ->
      let b = Obs_run.run_workload ~config exit_mix ~nprocs:4 in
      let s = b.Obs_run.b_stats in
      check_ring_stats_invariants ~msg:name b.Obs_run.b_obs s;
      List.iter
        (fun (what, n) -> Alcotest.(check bool) (Printf.sprintf "%s: %s happened" name what) true (n > 0))
        [
          ("cache hits", s.Alloc_stats.cache_hits);
          ("cache flushes", s.Alloc_stats.cache_flushes);
          ("channel pushes", s.Alloc_stats.remote_enqueues + s.Alloc_stats.deferred_enqueues);
          ("orphan adoptions", s.Alloc_stats.orphan_adoptions);
          ("large maps", s.Alloc_stats.large_maps);
        ];
      if config.Hoard_config.global = Hoard_config.Lockfree then
        List.iter
          (fun (what, n) -> Alcotest.(check bool) (Printf.sprintf "%s: %s happened" name what) true (n > 0))
          [
            ("global pushes", s.Alloc_stats.global_pushes);
            ("global pops", s.Alloc_stats.global_pops);
            ("large cache hits", s.Alloc_stats.large_cache_hits);
          ])
    [
      ("hoard-fe", { Hoard_config.default with front_end = 16 });
      ("hoard-gl", { Hoard_config.default with front_end = 16; large_cache = 4; global = Lockfree });
    ]

(* --- 4-domain host stress: invariants under real parallelism --- *)

let make_barrier parties =
  let count = Atomic.make 0 and sense = Atomic.make false in
  fun () ->
    let s = Atomic.get sense in
    if Atomic.fetch_and_add count 1 = parties - 1 then begin
      Atomic.set count 0;
      Atomic.set sense (not s)
    end
    else while Atomic.get sense = s do Domain.cpu_relax () done

let test_host_stress_counts () =
  let ndomains = 4 and rounds = 15 and batch = 48 in
  let pf = Platform.host ~nprocs:ndomains () in
  let obs = Obs.create () in
  let h = Hoard.create ~obs pf in
  let a = Hoard.allocator h in
  let slots = Array.init ndomains (fun _ -> Array.make batch 0) in
  let barrier = make_barrier ndomains in
  let doms =
    List.init ndomains (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 0x0b5; d |] in
            for _ = 1 to rounds do
              for i = 0 to batch - 1 do
                (* A size mix crossing the large threshold now and then. *)
                let size = if Random.State.int rng 20 = 0 then 50_000 else 8 + Random.State.int rng 2040 in
                slots.(d).(i) <- a.Alloc_intf.malloc size
              done;
              barrier ();
              (* Free the next domain's batch: every small free is remote. *)
              let v = (d + 1) mod ndomains in
              for i = 0 to batch - 1 do
                a.Alloc_intf.free slots.(v).(i)
              done;
              barrier ()
            done))
  in
  List.iter Domain.join doms;
  a.Alloc_intf.check ();
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "all freed" s.Alloc_stats.mallocs s.Alloc_stats.frees;
  Alcotest.(check bool) "remote traffic happened" true (s.Alloc_stats.remote_frees > 0);
  (* Quiescent: every ring total must agree exactly with its counter. *)
  check_ring_stats_invariants ~msg:"host" obs s;
  (* Per-ring bookkeeping is internally consistent too. *)
  List.iter
    (fun (name, r) ->
      Alcotest.(check int) (name ^ " retained+dropped") (Event_ring.recorded r)
        (Event_ring.retained r + Event_ring.dropped r))
    (Obs.rings obs);
  Platform.host_release pf

(* --- the committed trajectory --- *)

(* ci/trajectory.jsonl has one row per PR, in order: the pinned seed-1
   metrics of ci/perf-seed1.json as that PR left them, or a row saying
   the PR left the pin unchanged. Its last row that holds metrics is the
   pin itself, value for value, so a PR that regenerates the pin must
   append its row. *)
let test_trajectory_ends_at_pin () =
  let read f = In_channel.with_open_text f In_channel.input_all in
  let parse what s =
    match Json_lite.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let rows =
    read "../ci/trajectory.jsonl" |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (parse "trajectory row")
  in
  let pr r =
    match Option.bind (Json_lite.member "pr" r) Json_lite.to_float with
    | Some n -> int_of_float n
    | None -> Alcotest.fail "trajectory row without a PR number"
  in
  let prs = List.map pr rows in
  Alcotest.(check (list int)) "one row per PR, in order" (List.init (List.length prs) (fun i -> List.hd prs + i)) prs;
  List.iter
    (fun r ->
      if Json_lite.member "metrics" r = None && Json_lite.member "pin" r <> Some (Json_lite.Str "unchanged") then
        Alcotest.failf "PR %d: a row holds metrics or says the pin is unchanged" (pr r))
    rows;
  let fields = function
    | Some (Json_lite.Obj kvs) -> List.sort compare kvs
    | _ -> Alcotest.fail "metrics object expected"
  in
  let last = List.find (fun r -> Json_lite.member "metrics" r <> None) (List.rev rows) in
  let pin =
    fields (Json_lite.member "metrics" (parse "ci/perf-seed1.json" (read "../ci/perf-seed1.json")))
    |> List.map (fun (k, v) -> (k, Json_lite.member "value" v))
  in
  let row = fields (Json_lite.member "metrics" last) |> List.map (fun (k, v) -> (k, Some v)) in
  Alcotest.(check (list string)) "the pin's keys" (List.map fst pin) (List.map fst row);
  List.iter2
    (fun (k, a) (_, b) -> if a <> b then Alcotest.failf "PR %d's row differs from the pin at %s" (pr last) k)
    pin row

let () =
  Alcotest.run "obs"
    [
      ( "event-ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wrap keeps exact counts" `Quick test_ring_wrap_exact_counts;
          Alcotest.test_case "kind names distinct" `Quick test_kind_names_distinct;
          Alcotest.test_case "kind table documented" `Quick test_kind_table_documented;
          Alcotest.test_case "invariants documented" `Quick test_invariants_documented;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "json export parses" `Quick test_metrics_json_parses;
          Alcotest.test_case "csv export" `Quick test_metrics_csv;
        ] );
      ( "json-lite",
        [
          Alcotest.test_case "valid" `Quick test_json_valid;
          Alcotest.test_case "invalid" `Quick test_json_invalid;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "perfetto json" `Quick test_perfetto_json;
          Alcotest.test_case "heatmap" `Quick test_heatmap_render;
        ] );
      ( "obs-context", [ Alcotest.test_case "ring registry" `Quick test_obs_rings_registry ] );
      ( "instrumented-runs",
        [
          Alcotest.test_case "sim composition" `Quick test_sim_composition;
          Alcotest.test_case "tracing is timing-free" `Quick test_instrumentation_free;
          Alcotest.test_case "bundle invariants" `Quick test_obs_run_bundle;
          Alcotest.test_case "deterministic" `Quick test_obs_run_deterministic;
          Alcotest.test_case "front-end invariants" `Quick test_front_end_invariants;
          Alcotest.test_case "teardown is not a cache flush" `Quick test_teardown_not_a_flush;
        ] );
      ( "host-stress", [ Alcotest.test_case "4-domain counts" `Quick test_host_stress_counts ] );
      ("trajectory", [ Alcotest.test_case "ends at the seed-1 pin" `Quick test_trajectory_ends_at_pin ]);
    ]
