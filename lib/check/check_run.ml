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
      (Hoard_config.make ~vmem_backend:Vmem_backend.First_fit ());
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

(* The O(P) term of the paper's blowup bound, from the configuration: per
   heap, K superblocks of slack, one being installed (the invariant is
   only enforced on frees), one in transit to the global heap, and one
   pinned per size class by the trim's protect-last rule; the global
   heap's retained empties; front-end caches and remote queues park whole
   blocks; the quarantine holds back frees; threads keep one allocation
   in flight. All counted at superblock granularity where a superblock
   could be pinned, so the envelope is generous but still O(U + P).

   P here is the PEAK LIVE thread population (Sim.peak_live_threads),
   not the total ever spawned: a retiring thread's exit path flushes its
   caches and hands its heap's superblocks to the global heap, so under
   churn the threads that have come and gone must not widen the
   envelope. Holding the bound to peak-live P is precisely what tests
   that orphaned-superblock adoption works. *)
let blowup_slop ?(quarantine = 0) cfg ~nprocs ~peak_live_threads =
  let s = cfg.Hoard_config.sb_size in
  let p = peak_live_threads in
  let heaps = (match cfg.Hoard_config.nheaps with Some n -> n | None -> nprocs) + 1 in
  let per_heap = (cfg.Hoard_config.slack + 4) * s * heaps in
  let retained = (Hoard_config.retained_superblocks cfg + 1) * s in
  let in_flight = p * s in
  let fe = if cfg.Hoard_config.front_end > 0 then (p + heaps) * s else 0 in
  let quarantine = quarantine * Hoard_config.max_small cfg in
  (* Deferred lists are unbounded, but a block only floats between a
     producer's eviction (at most a cache's worth per flush) and the
     owner's next fill — the same per-thread granularity as the caches,
     counted once more per heap since reclaims happen heap by heap. *)
  let deferred =
    if cfg.Hoard_config.global = Hoard_config.Lockfree && cfg.Hoard_config.front_end > 0 then (p + heaps) * s else 0
  in
  (* The large cache keeps up to cap regions per bucket mapped (1..16
     pages each, 4 KiB pages on every platform we build). *)
  let large_cache = cfg.Hoard_config.large_cache * (16 * 17 / 2) * 4096 in
  per_heap + retained + in_flight + fe + quarantine + deferred + large_cache

type report = {
  c_workload : string;
  c_subject : string;
  c_result : Runner.result;
  c_mallocs : int;  (** operations the oracle checked *)
  c_peak_usable : int;  (** the oracle's ideal-allocator peak U *)
  c_shared_lines : int;  (** actively-induced false sharing (oracle) *)
  c_quarantine_peak : int;  (** sanitizer quarantine length before flush *)
}

(* Run [workload] on [subject] with every operation oracle-checked.
   Raises Oracle.Oracle_violation / Sanitizer.Violation (or the
   allocator's own check failure) on any discrepancy. *)
let run_oracle ?fuzz ?(nprocs = 4) ?nthreads ?(check_blowup = true) ?(expect_no_false_sharing = false)
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
  let oracle = ref None in
  let wrap_allocator pf a =
    let o, checked = Oracle.wrap pf a in
    oracle := Some o;
    checked
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
  let post (a : Alloc_intf.t) =
    let o = Option.get !oracle in
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
  let vmem_backend =
    match s.s_config with
    | Some cfg -> cfg.Hoard_config.vmem_backend
    | None -> Vmem_backend.Exact
  in
  let spec = Runner.spec ?nthreads ~vmem_backend workload factory ~nprocs in
  let r = Runner.run_with ?fuzz ~wrap_allocator ~wrap_platform ~post spec in
  let o = Option.get !oracle in
  (* Blowup is checked after the run, when the simulator can report the
     peak LIVE thread population — the P of the O(U + P) bound. Under
     churn workloads this is far below the total thread count; exited
     threads must not leave memory stranded (that is the adoption
     path's contract). The stats snapshot is quiescent: [post] flushed
     every cache before it was taken. *)
  (match !handle with
   | Some (h, _) when check_blowup ->
     let cfg = Hoard.config h in
     Oracle.check_blowup o ~stats:r.Runner.r_stats
       ~empty_fraction:cfg.Hoard_config.empty_fraction
       ~slop:(blowup_slop ?quarantine:s.s_quarantine cfg ~nprocs ~peak_live_threads:r.Runner.r_peak_live_threads)
   | _ -> ());
  {
    c_workload = r.Runner.r_workload;
    c_subject = s.s_label;
    c_result = r;
    c_mallocs = r.Runner.r_stats.Alloc_stats.mallocs;
    c_peak_usable = Oracle.peak_usable_bytes o;
    c_shared_lines = Oracle.active_shared_lines o;
    c_quarantine_peak = !quarantine_peak;
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
