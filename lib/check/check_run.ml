(* Oracle-checked workload runs: the harness runner with the
   differential oracle interposed on the allocator, and — for sanitizer
   subjects — the heap sanitizer's access checker installed on the
   workload's view of the platform. This is the layer the hoard_check
   CLI and the deep-check CI job drive. *)

let sprintf = Printf.sprintf

type subject = {
  s_label : string;
  s_describe : string;
  s_config : Hoard_config.t option;
      (* Some: a hoard instance we keep a handle on (flushable, sanitizer
         wirable, blowup-checkable). None: a registry factory (baselines
         have no quiescent-flush or blowup story, so those checks are
         skipped for them). *)
  s_quarantine : int option; (* Some q: the sanitizer wraps the instance, q-block ring *)
}

let hoard_subjects =
  let subject ?(san = false) s_label s_describe config =
    let s_quarantine = if san then Some Sanitizer.default_quarantine else None in
    { s_label; s_describe; s_config = Some config; s_quarantine }
  in
  let base label = Option.get (Allocators.base_config label) in
  [
    subject "hoard" "paper-exact configuration" (base "hoard");
    subject "hoard-fe" "lock-free front end" (base "hoard-fe");
    subject ~san:true "hoard-gl-san" "lock-free global heap, deferred frees and large cache with the sanitizer on"
      (base "hoard-gl");
    subject ~san:true "hoard-san" "sanitizer on (poison, quarantine, access checks)" (base "hoard-san");
    subject ~san:true "hoard-fe-san" "front end and sanitizer together" (base "hoard-fe");
    subject ~san:true "hoard-ff-san" "first-fit vmem backend (address reuse across sizes), sanitizer on"
      { Hoard_config.default with vmem_backend = Vmem_backend.First_fit };
  ]

let find_subject label =
  match List.find_opt (fun s -> s.s_label = label) hoard_subjects with
  | Some s -> Some s
  | None ->
    (match Allocators.find label with
     | Some f -> Some { s_label = label; s_describe = f.Alloc_intf.description; s_config = None; s_quarantine = None }
     | None -> None)

let subject_help () =
  let own =
    List.map (fun s -> sprintf "  %-14s %s" s.s_label s.s_describe) hoard_subjects |> String.concat "\n"
  in
  own ^ "\n(plus any registry allocator: " ^ String.concat ", " (Allocators.labels ()) ^ ")"

type report = {
  c_workload : string;
  c_subject : string;
  c_result : Runner.result;
  c_mallocs : int;  (** operations the oracle checked *)
  c_peak_usable : int;  (** the oracle's ideal-allocator peak U *)
  c_shared_lines : int;  (** actively-induced false sharing (oracle) *)
  c_quarantine_peak : int;  (** sanitizer quarantine length before flush *)
  c_envelope : int option;  (** the blowup bound asserted; [None] when not checked *)
}

(* Run [workload] on [subject] with every operation oracle-checked.
   Raises Oracle.Oracle_violation / Sanitizer.Violation (or the
   allocator's own check failure) on any discrepancy. *)
let run_oracle ?fuzz ?(nprocs = 4) ?(check_blowup = true) ?(expect_no_false_sharing = false)
    ?(overrides = fun cfg -> cfg) ~workload ~subject () =
  let s =
    match find_subject subject with
    | Some s -> { s with s_config = Option.map overrides s.s_config }
    | None -> invalid_arg (sprintf "Check_run.run_oracle: unknown subject %S" subject)
  in
  let handle = ref None in
  let factory =
    match s.s_config with
    | None -> Option.get (Allocators.find s.s_label)
    | Some config ->
      {
        (Hoard.factory ~config ()) with
        Alloc_intf.label = s.s_label;
        description = s.s_describe;
        instantiate =
          (fun pf ->
            let h = Hoard.create ~config pf in
            let san = Option.map (fun quarantine -> Sanitizer.create ~quarantine pf h) s.s_quarantine in
            handle := Some (h, san);
            match san with
            | Some sn -> Sanitizer.allocator sn
            | None -> Hoard.allocator h);
      }
  in
  let wrap_platform pf =
    match !handle with
    | Some (_, Some sn) ->
      {
        pf with
        Platform.read =
          (fun ~addr ~len ->
            Sanitizer.access_check sn ~addr ~len ~write:false;
            pf.Platform.read ~addr ~len);
        write =
          (fun ~addr ~len ->
            Sanitizer.access_check sn ~addr ~len ~write:true;
            pf.Platform.write ~addr ~len);
      }
    | _ -> pf
  in
  let quarantine_peak = ref 0 in
  let post o (a : Alloc_intf.t) =
    (match !handle with
     | None -> Oracle.final_check o ~stats:(a.Alloc_intf.stats ())
     | Some (h, san) ->
       (match san with
        | Some sn ->
          quarantine_peak := Sanitizer.quarantine_length sn;
          Sanitizer.flush_caches sn
        | None -> Hoard.flush_caches h);
       Hoard.check h;
       (* Quiescent: caches, queues and quarantine drained, so the
          allocator's live bytes must match the oracle's exactly. *)
       Oracle.final_check ~expect_quiescent_equality:true o ~stats:(a.Alloc_intf.stats ());
       Oracle.check_residency o ~stats:(a.Alloc_intf.stats ()));
    if expect_no_false_sharing && Oracle.active_shared_lines o > 0 then
      raise
        (Oracle.Oracle_violation
           (sprintf "oracle[%s]: %d cache line(s) actively shared between threads" s.s_label
              (Oracle.active_shared_lines o)))
  in
  let spec = Runner.spec workload factory ~nprocs in
  let o, r = Runner.run_with ?fuzz ~wrap_allocator:Oracle.wrap ~wrap_platform ~post spec in
  (* Blowup is checked after the run, when the simulator can report the
     peak LIVE thread population — the P of the O(U + P) bound. Under
     churn workloads this is far below the total thread count; exited
     threads must not leave memory stranded (that is the adoption
     path's contract). The stats snapshot is quiescent: [post] flushed
     every cache before it was taken. *)
  let envelope =
    match !handle with
    | Some (h, _) when check_blowup ->
      let bound =
        Hoard_config.blowup_envelope ?quarantine:s.s_quarantine (Hoard.config h) ~nprocs
          ~peak_live_threads:r.Runner.r_peak_live_threads ~peak_live_bytes:(Oracle.peak_usable_bytes o)
      in
      Oracle.check_blowup o ~stats:r.Runner.r_stats ~bound;
      Some bound
    | _ -> None
  in
  {
    c_workload = r.Runner.r_workload;
    c_subject = s.s_label;
    c_result = r;
    c_mallocs = r.Runner.r_stats.Alloc_stats.mallocs;
    c_peak_usable = Oracle.peak_usable_bytes o;
    c_shared_lines = Oracle.active_shared_lines o;
    c_quarantine_peak = !quarantine_peak;
    c_envelope = envelope;
  }

(* Quick-scale variants of the paper workloads, the set the deep-check
   CI job sweeps. Sizes chosen so an oracle-checked run stays in the
   hundreds of milliseconds. *)
let quick_workloads () =
  [
    Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 4; objects = 2000 } ();
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 60; handoffs = 4; objects_per_thread = 40 }
      ();
    Producer_consumer.make
      ~params:{ Producer_consumer.default_params with Producer_consumer.rounds = 12; batch = 40 }
      ();
    False_sharing.active ~params:{ False_sharing.default_params with False_sharing.loops = 96; writes_per_object = 40 } ();
    (* Thread churn: every thread retires through the exit path, so the
       oracle checks adoption end to end and the blowup envelope is held
       to P = peak live threads. *)
    Churn.make
      ~params:{ Churn.default_params with Churn.generations = 2; iterations = 2; objects = 24; spawn_gap = 10_000 }
      ();
    Churn.make
      ~params:
        {
          Churn.default_params with
          Churn.pattern = Churn.Rolling;
          body = Churn.Larson_body;
          generations = 2;
          iterations = 2;
          objects = 24;
          spawn_gap = 10_000;
        }
      ();
    Churn.make
      ~params:
        {
          Churn.default_params with
          Churn.pattern = Churn.Flash;
          body = Churn.Server_body;
          generations = 2;
          iterations = 2;
          objects = 24;
          spawn_gap = 10_000;
        }
      ();
  ]

let find_workload name = List.find_opt (fun w -> w.Workload_intf.w_name = name) (quick_workloads ())

let workload_help () =
  quick_workloads ()
  |> List.map (fun w -> sprintf "  %-20s %s" w.Workload_intf.w_name w.Workload_intf.w_describe)
  |> String.concat "\n"
