type scale = Quick | Full

type output = { tables : Table.t list; plot : string option }

type t = {
  id : string;
  title : string;
  paper_ref : string;
  describe : string;
  run : scale -> procs:int list option -> output;
}

let tables_only tables = { tables; plot = None }

let default_procs = function
  | Quick -> [ 1; 2; 4; 8 ]
  | Full -> [ 1; 2; 4; 8; 12; 14 ]

(* The paper's comparison set: Hoard vs Ptmalloc (private-ownership) vs
   MTmalloc (concurrent-single) vs Solaris malloc (serial). *)
let figure_allocators () =
  [ Locked_heaps.serial (); Locked_heaps.concurrent_single (); Locked_heaps.private_ownership (); Hoard.factory () ]

let all_allocators () = figure_allocators () @ [ Private_heaps.pure_private (); Private_heaps.private_threshold () ]

(* --- scaled workload constructors --- *)

let threadtest = function
  | Quick -> Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 5; objects = 2000 } ()
  | Full -> Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 16; objects = 8000 } ()

let shbench = function
  | Quick -> Shbench.make ~params:{ Shbench.default_params with Shbench.ops = 6000; slots_per_thread = 250 } ()
  | Full -> Shbench.make ~params:{ Shbench.default_params with Shbench.ops = 48_000; slots_per_thread = 500 } ()

let larson = function
  | Quick ->
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 150; handoffs = 3; objects_per_thread = 800 } ()
  | Full ->
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 600; handoffs = 6; objects_per_thread = 2000 } ()

let false_params = function
  | Quick -> { False_sharing.default_params with False_sharing.loops = 400; writes_per_object = 60 }
  | Full -> { False_sharing.default_params with False_sharing.loops = 1600; writes_per_object = 120 }

let active_false scale = False_sharing.active ~params:(false_params scale) ()

let passive_false scale = False_sharing.passive ~params:(false_params scale) ()

let bem = function
  | Quick ->
    Bem_like.make
      ~params:{ Bem_like.default_params with Bem_like.panels = 240; assemble_rows = 96; solve_iters = 6 } ()
  | Full ->
    Bem_like.make
      ~params:{ Bem_like.default_params with Bem_like.panels = 1200; assemble_rows = 480; solve_iters = 16 } ()

let barnes = function
  | Quick -> Barnes_hut.make ~params:{ Barnes_hut.default_params with Barnes_hut.nbodies = 96; steps = 2 } ()
  | Full -> Barnes_hut.make ~params:{ Barnes_hut.default_params with Barnes_hut.nbodies = 320; steps = 4 } ()

let churn ?(pattern = Churn.Wave) ?(body = Churn.Threadtest_body) scale =
  let base = { Churn.default_params with Churn.pattern; body } in
  match scale with
  | Quick -> Churn.make ~params:{ base with Churn.generations = 2; iterations = 2; objects = 32 } ()
  | Full -> Churn.make ~params:{ base with Churn.generations = 4; iterations = 4; objects = 64 } ()

let producer_consumer ~rounds ~batch =
  Producer_consumer.make ~params:{ Producer_consumer.default_params with Producer_consumer.rounds; batch } ()

(* Batch sized so that U (one live batch) dwarfs the K*S slack Hoard's
   heaps legitimately retain: the O(P) signal is then unmistakable. *)
let phased_blowup ~rounds =
  Producer_consumer.phased
    ~params:{ Producer_consumer.default_params with Producer_consumer.rounds; batch = 3000 } ()

let prodcons_rounds = function
  | Quick -> [ 5; 10; 20; 40 ]
  | Full -> [ 10; 20; 40; 80 ]

let prodcons_pipelined scale =
  Producer_consumer.pipelined
    ~params:
      {
        Producer_consumer.default_params with
        Producer_consumer.rounds = List.nth (prodcons_rounds scale) 2;
        batch = 200;
      }
    ()

(* --- helpers --- *)

let run_one workload alloc ~nprocs = Runner.run (Runner.spec workload alloc ~nprocs)

let kib bytes = Printf.sprintf "%d KiB" ((bytes + 1023) / 1024)

(* Speedup figure: rows = processor counts, columns = allocators, cells =
   T(1)/T(P) per allocator. A companion table reports raw cycles. *)
let speedup_figure ~id ~title ~paper_ref ~describe ~workload_of_scale =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> if List.mem 1 ps then ps else 1 :: ps
      | None -> default_procs scale
    in
    let allocs = figure_allocators () in
    let results =
      List.map
        (fun alloc -> List.map (fun p -> run_one (workload_of_scale scale) alloc ~nprocs:p) procs)
        allocs
    in
    let columns = ("P", Table.Right) :: List.map (fun a -> (a.Alloc_intf.label, Table.Right)) allocs in
    let speedups = Table.create ~title:(title ^ " — speedup T(1)/T(P)") ~columns in
    let cycles = Table.create ~title:(title ^ " — simulated cycles") ~columns in
    List.iteri
      (fun pi p ->
        let srow =
          List.map
            (fun per_alloc ->
              let base = List.hd per_alloc in
              Table.cell_float (Runner.speedup ~base (List.nth per_alloc pi)))
            results
        in
        let crow = List.map (fun per_alloc -> string_of_int (List.nth per_alloc pi).Runner.r_cycles) results in
        Table.add_row speedups (string_of_int p :: srow);
        Table.add_row cycles (string_of_int p :: crow))
      procs;
    let plot =
      Ascii_plot.render ~title:(title ^ " — speedup") ~x_label:"processors" ~y_label:"speedup"
        ~series:
          (List.map2
             (fun alloc per_alloc ->
               ( alloc.Alloc_intf.label,
                 List.map2
                   (fun p r -> (float_of_int p, Runner.speedup ~base:(List.hd per_alloc) r))
                   procs per_alloc ))
             allocs results)
        ()
    in
    { tables = [ speedups; cycles ]; plot = Some plot }
  in
  { id; title; paper_ref; describe; run }

(* --- Table 1: allocator taxonomy, measured --- *)

let taxonomy =
  let run scale ~procs =
    ignore procs;
    let p_scal =
      match scale with
      | Quick -> 4
      | Full -> 8
    in
    let tbl =
      Table.create ~title:"Allocator taxonomy (measured)"
        ~columns:
          [
            ("allocator", Table.Left);
            ("uniproc slowdown", Table.Right);
            ("fast", Table.Left);
            (Printf.sprintf "speedup@%dP" p_scal, Table.Right);
            ("scalable", Table.Left);
            ("inval/op (active-false)", Table.Right);
            ("avoids false sharing", Table.Left);
            ("pc A/U", Table.Right);
            ("pc growth", Table.Right);
            (Printf.sprintf "phased A/U@%dP" p_scal, Table.Right);
            ("blowup class", Table.Left);
          ]
    in
    let serial_base = run_one (threadtest scale) (Locked_heaps.serial ()) ~nprocs:1 in
    List.iter
      (fun alloc ->
        (* Fast: uniprocessor threadtest time relative to the serial allocator. *)
        let uni = run_one (threadtest scale) alloc ~nprocs:1 in
        let slowdown = float_of_int uni.Runner.r_cycles /. float_of_int serial_base.Runner.r_cycles in
        (* Scalable: threadtest speedup at p_scal processors. *)
        let at_p = run_one (threadtest scale) alloc ~nprocs:p_scal in
        let sp = Runner.speedup ~base:uni at_p in
        (* False sharing: invalidations per op on active-false. *)
        let af = run_one (active_false scale) alloc ~nprocs:4 in
        let inval_per_op = float_of_int af.Runner.r_invalidations /. float_of_int af.Runner.r_ops in
        (* Blowup: producer-consumer held/live ratio, and its growth when
           the round count doubles (growth ~2 means unbounded-in-time). *)
        let rs = prodcons_rounds scale in
        let r_lo = List.nth rs (List.length rs - 2) and r_hi = List.nth rs (List.length rs - 1) in
        let pc r = run_one (producer_consumer ~rounds:r ~batch:200) alloc ~nprocs:2 in
        let lo = pc r_lo and hi = pc r_hi in
        let blowup r = float_of_int r.Runner.r_stats.Alloc_stats.peak_held_bytes
                       /. float_of_int r.Runner.r_stats.Alloc_stats.peak_live_bytes in
        let growth = blowup hi /. blowup lo in
        (* O(P) signal: one thread at a time holds U live; allocators that
           strand freed memory per heap peak near P * U. *)
        let phased = run_one (phased_blowup ~rounds:(2 * p_scal)) alloc ~nprocs:p_scal in
        let phased_ratio = blowup phased in
        let cls =
          if growth > 1.5 then "unbounded"
          else if phased_ratio >= 0.7 *. float_of_int p_scal then "O(P)"
          else "O(1)"
        in
        Table.add_row tbl
          [
            alloc.Alloc_intf.label;
            Table.cell_ratio slowdown;
            (if slowdown < 1.5 then "yes" else "no");
            Table.cell_ratio sp;
            (if sp > float_of_int p_scal /. 2.0 then "yes" else "no");
            Table.cell_float inval_per_op;
            (if inval_per_op < 1.0 then "yes" else "no");
            Table.cell_float (blowup hi);
            Table.cell_float growth;
            Table.cell_float phased_ratio;
            cls;
          ])
      (all_allocators ());
    tables_only [ tbl ]
  in
  {
    id = "table1";
    title = "Table 1: allocator taxonomy";
    paper_ref = "Table 1";
    describe = "fast / scalable / false-sharing / blowup classification, measured on this substrate";
    run;
  }

(* --- Table 2: the benchmark suite --- *)

let suite scale =
  [ threadtest scale; shbench scale; larson scale; active_false scale; passive_false scale; bem scale; barnes scale ]

(* Table 4 covers the application benchmarks: the synthetic false-sharing
   micro-benchmarks keep a few bytes live, making the held/live ratio
   meaningless (the paper's Table 4 also lists only the applications). *)
let frag_suite scale = [ threadtest scale; shbench scale; larson scale; bem scale; barnes scale ]

let benchmarks_table =
  let run scale ~procs =
    ignore procs;
    let tbl =
      Table.create ~title:"Benchmark suite" ~columns:[ ("benchmark", Table.Left); ("parameters", Table.Left) ]
    in
    List.iter
      (fun w -> Table.add_row tbl [ w.Workload_intf.w_name; w.Workload_intf.w_describe ])
      (suite scale);
    tables_only [ tbl ]
  in
  {
    id = "table2";
    title = "Table 2: benchmark suite";
    paper_ref = "Table 2";
    describe = "the benchmarks and their run parameters at this scale";
    run;
  }

(* --- Table 3: program statistics --- *)

let program_stats =
  let run scale ~procs =
    ignore procs;
    let tbl =
      Table.create ~title:"Program memory statistics (1 processor, hoard)"
        ~columns:
          [
            ("benchmark", Table.Left);
            ("mallocs", Table.Right);
            ("total requested", Table.Right);
            ("avg size (B)", Table.Right);
            ("peak live", Table.Right);
            ("ops", Table.Right);
          ]
    in
    List.iter
      (fun w ->
        let r = run_one w (Hoard.factory ()) ~nprocs:1 in
        let s = r.Runner.r_stats in
        Table.add_row tbl
          [
            w.Workload_intf.w_name;
            string_of_int s.Alloc_stats.mallocs;
            kib s.Alloc_stats.bytes_requested;
            Table.cell_float (float_of_int s.Alloc_stats.bytes_requested /. float_of_int (max 1 s.Alloc_stats.mallocs));
            kib s.Alloc_stats.peak_live_bytes;
            string_of_int r.Runner.r_ops;
          ])
      (suite scale);
    tables_only [ tbl ]
  in
  {
    id = "table3";
    title = "Table 3: program statistics";
    paper_ref = "Table 3";
    describe = "objects allocated, bytes requested, average size and peak live memory per benchmark";
    run;
  }

(* --- Table 4: fragmentation --- *)

let fragmentation =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "Hoard fragmentation (A_peak / U_peak) at %d processors" p)
        ~columns:
          [
            ("benchmark", Table.Left);
            ("peak held", Table.Right);
            ("peak live", Table.Right);
            ("fragmentation", Table.Right);
          ]
    in
    List.iter
      (fun w ->
        let r = run_one w (Hoard.factory ()) ~nprocs:p in
        let s = r.Runner.r_stats in
        Table.add_row tbl
          [
            w.Workload_intf.w_name;
            kib s.Alloc_stats.peak_held_bytes;
            kib s.Alloc_stats.peak_live_bytes;
            Table.cell_float (Runner.fragmentation r);
          ])
      (frag_suite scale);
    tables_only [ tbl ]
  in
  {
    id = "table4";
    title = "Table 4: fragmentation";
    paper_ref = "Table 4";
    describe = "Hoard's worst-case memory held over worst-case memory live, per benchmark";
    run;
  }

(* --- Table 5: uniprocessor overhead --- *)

let uniproc_overhead =
  let run scale ~procs =
    ignore procs;
    let allocs = all_allocators () in
    let tbl =
      Table.create ~title:"Uniprocessor runtime relative to the serial allocator"
        ~columns:
          (("benchmark", Table.Left) :: List.map (fun a -> (a.Alloc_intf.label, Table.Right)) allocs)
    in
    List.iter
      (fun w ->
        let base = run_one w (Locked_heaps.serial ()) ~nprocs:1 in
        let row =
          List.map
            (fun alloc ->
              let r = run_one w alloc ~nprocs:1 in
              Table.cell_ratio (float_of_int r.Runner.r_cycles /. float_of_int base.Runner.r_cycles))
            allocs
        in
        Table.add_row tbl (w.Workload_intf.w_name :: row))
      (suite scale);
    tables_only [ tbl ]
  in
  {
    id = "table5";
    title = "Table 5: uniprocessor overhead";
    paper_ref = "Table 5";
    describe = "single-processor runtime of every allocator normalised to the serial allocator";
    run;
  }

(* --- Larson throughput figure --- *)

let larson_figure =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> ps
      | None -> default_procs scale
    in
    let allocs = figure_allocators () in
    let columns = ("P", Table.Right) :: List.map (fun a -> (a.Alloc_intf.label, Table.Right)) allocs in
    let tbl = Table.create ~title:"Larson — throughput (memory ops per Mcycle)" ~columns in
    let results =
      List.map (fun alloc -> List.map (fun p -> Runner.ops_per_mcycle (run_one (larson scale) alloc ~nprocs:p)) procs) allocs
    in
    List.iteri
      (fun pi p ->
        let row = List.map (fun per_alloc -> Table.cell_float (List.nth per_alloc pi)) results in
        Table.add_row tbl (string_of_int p :: row))
      procs;
    let plot =
      Ascii_plot.render ~title:"Larson throughput" ~x_label:"processors" ~y_label:"ops/Mcycle"
        ~series:
          (List.map2
             (fun alloc per_alloc ->
               (alloc.Alloc_intf.label, List.map2 (fun p v -> (float_of_int p, v)) procs per_alloc))
             allocs results)
        ()
    in
    { tables = [ tbl ]; plot = Some plot }
  in
  {
    id = "fig_larson";
    title = "Figure: Larson server benchmark";
    paper_ref = "Larson throughput figure";
    describe = "server-style object bleeding; throughput must scale with processors for Hoard";
    run;
  }

(* --- blowup experiment --- *)

let blowup_exp =
  let run scale ~procs =
    ignore procs;
    let allocs =
      [ Hoard.factory (); Locked_heaps.private_ownership (); Private_heaps.pure_private (); Locked_heaps.serial () ]
    in
    let columns =
      ("rounds", Table.Right)
      :: List.concat_map
           (fun a -> [ (a.Alloc_intf.label ^ " A", Table.Right); (a.Alloc_intf.label ^ " A/U", Table.Right) ])
           allocs
    in
    let tbl = Table.create ~title:"Blowup: producer-consumer, peak held memory vs rounds (P=2)" ~columns in
    List.iter
      (fun rounds ->
        let row =
          List.concat_map
            (fun alloc ->
              let r = run_one (producer_consumer ~rounds ~batch:200) alloc ~nprocs:2 in
              let s = r.Runner.r_stats in
              [
                kib s.Alloc_stats.peak_held_bytes;
                Table.cell_float
                  (float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int s.Alloc_stats.peak_live_bytes);
              ])
            allocs
        in
        Table.add_row tbl (string_of_int rounds :: row))
      (prodcons_rounds scale);
    let phased_tbl =
      Table.create ~title:"Blowup: phased adversary, peak held / peak live vs processors"
        ~columns:(("P", Table.Right) :: List.map (fun a -> (a.Alloc_intf.label, Table.Right)) allocs)
    in
    let procs =
      match scale with
      | Quick -> [ 2; 4 ]
      | Full -> [ 2; 4; 8; 14 ]
    in
    List.iter
      (fun p ->
        let row =
          List.map
            (fun alloc ->
              let r = run_one (phased_blowup ~rounds:(2 * p)) alloc ~nprocs:p in
              let s = r.Runner.r_stats in
              Table.cell_float
                (float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int s.Alloc_stats.peak_live_bytes))
            allocs
        in
        Table.add_row phased_tbl (string_of_int p :: row))
      procs;
    tables_only [ tbl; phased_tbl ]
  in
  {
    id = "exp_blowup";
    title = "Blowup bound validation";
    paper_ref = "Section 3 analysis (blowup definitions and bounds)";
    describe = "peak held memory under the producer-consumer adversary: O(1) for Hoard, unbounded for pure-private";
    run;
  }

(* --- false-sharing counts --- *)

let falseshare_exp =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "False sharing: cache invalidations per memory op at %d processors" p)
        ~columns:
          [
            ("allocator", Table.Left);
            ("active-false inval/op", Table.Right);
            ("passive-false inval/op", Table.Right);
          ]
    in
    List.iter
      (fun alloc ->
        let af = run_one (active_false scale) alloc ~nprocs:p in
        let pf = run_one (passive_false scale) alloc ~nprocs:p in
        let per_op r = float_of_int r.Runner.r_invalidations /. float_of_int r.Runner.r_ops in
        Table.add_row tbl [ alloc.Alloc_intf.label; Table.cell_float (per_op af); Table.cell_float (per_op pf) ])
      (all_allocators ());
    tables_only [ tbl ]
  in
  {
    id = "exp_falseshare";
    title = "False-sharing measurement";
    paper_ref = "Section on allocator-induced false sharing";
    describe = "directly counted invalidations for the active/passive false-sharing benchmarks";
    run;
  }

(* --- ablations --- *)

let hoard_with f = Hoard.factory ~config:f ()

let ablation ~id ~title ~describe ~values ~label =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "%s (threadtest & shbench @ %dP, phased blowup @ %dP)" title p p)
        ~columns:
          [
            (label, Table.Right);
            ("threadtest cycles", Table.Right);
            ("shbench cycles", Table.Right);
            ("shbench frag", Table.Right);
            ("shbench transfers", Table.Right);
            ("phased A/U", Table.Right);
          ]
    in
    List.iter
      (fun (name, cfg) ->
        let tt = run_one (threadtest scale) (hoard_with cfg) ~nprocs:p in
        let sh = run_one (shbench scale) (hoard_with cfg) ~nprocs:p in
        let ph = run_one (phased_blowup ~rounds:(2 * p)) (hoard_with cfg) ~nprocs:p in
        let s = ph.Runner.r_stats in
        Table.add_row tbl
          [
            name;
            string_of_int tt.Runner.r_cycles;
            string_of_int sh.Runner.r_cycles;
            Table.cell_float (Runner.fragmentation sh);
            string_of_int
              (sh.Runner.r_stats.Alloc_stats.sb_to_global + sh.Runner.r_stats.Alloc_stats.sb_from_global);
            Table.cell_float
              (float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int s.Alloc_stats.peak_live_bytes);
          ])
      values;
    tables_only [ tbl ]
  in
  { id; title; paper_ref = "design ablation"; describe; run }

let abl_f =
  let cfg f = { Hoard_config.default with empty_fraction = f } in
  ablation ~id:"abl_f" ~title:"Ablation: emptiness fraction f"
    ~describe:"sensitivity of throughput, fragmentation and blowup to the emptiness fraction"
    ~values:[ ("f=1/8", cfg 0.125); ("f=1/4", cfg 0.25); ("f=1/2", cfg 0.5) ]
    ~label:"f"

let abl_k =
  let cfg k = { Hoard_config.default with slack = k } in
  ablation ~id:"abl_k" ~title:"Ablation: slack K"
    ~describe:"sensitivity to the number of superblocks a heap may hold beyond the emptiness fraction"
    ~values:[ ("K=0", cfg 0); ("K=1", cfg 1); ("K=4", cfg 4); ("K=16", cfg 16) ]
    ~label:"K"

let abl_sbsize =
  let cfg s = { Hoard_config.default with sb_size = s } in
  ablation ~id:"abl_sbsize" ~title:"Ablation: superblock size S"
    ~describe:"trade-off between transfer granularity and fragmentation"
    ~values:[ ("S=4K", cfg 4096); ("S=8K", cfg 8192); ("S=16K", cfg 16384); ("S=64K", cfg 65536) ]
    ~label:"S"

(* --- NUMA / two-tier topology --- *)

let numa_exp =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    (* The shared two-tier helper needs sockets * cores_per_socket =
       nprocs: round an odd request up to the next even machine. *)
    let p = if p mod 2 = 0 then p else p + 1 in
    let allocs = figure_allocators () in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "NUMA: threadtest cycles at %d processors, flat vs 2-socket topology" p)
        ~columns:
          [
            ("allocator", Table.Left);
            ("flat cycles", Table.Right);
            ("2-socket cycles", Table.Right);
            ("socket penalty", Table.Right);
            ("cross-node events", Table.Right);
            ("cross-socket events", Table.Right);
          ]
    in
    List.iter
      (fun alloc ->
        let flat = Runner.run (Runner.spec (threadtest scale) alloc ~nprocs:p) in
        let numa = Runner.run (Runner.spec ~topology:(2, p / 2) (threadtest scale) alloc ~nprocs:p) in
        Table.add_row tbl
          [
            alloc.Alloc_intf.label;
            string_of_int flat.Runner.r_cycles;
            string_of_int numa.Runner.r_cycles;
            Table.cell_ratio (float_of_int numa.Runner.r_cycles /. float_of_int flat.Runner.r_cycles);
            string_of_int numa.Runner.r_cross_node_events;
            string_of_int numa.Runner.r_cross_socket_events;
          ])
      allocs;
    tables_only [ tbl ]
  in
  {
    id = "exp_numa";
    title = "NUMA two-tier topology";
    paper_ref = "extension (the paper targets flat SMPs)";
    describe =
      "flat vs 2-socket machine via the shared topology helper: socket-crossing coherence pays \
       cross_node + cross_socket, so allocators that localise memory keep their speed";
    run;
  }

(* --- exp_scale: the 64-128P two-tier scale-out matrix --- *)

let scale_procs = function
  | Quick -> [ 8; 64 ]
  | Full -> [ 8; 16; 32; 64; 128 ]

(* Topologies applicable at P processors: flat plus every socket count
   that divides the machine evenly. *)
let scale_topologies p =
  ("flat", None)
  :: List.filter_map
       (fun sockets ->
         if p mod sockets = 0 && p / sockets >= 1 && sockets < p then
           Some (Printf.sprintf "%d-socket" sockets, Some (sockets, p / sockets))
         else None)
       [ 2; 4 ]

let scale_exp =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> ps
      | None -> scale_procs scale
    in
    let workloads =
      [
        ("threadtest", fun () -> threadtest scale);
        ("churn-wave", fun () -> churn ~pattern:Churn.Wave scale);
        ("churn-rolling", fun () -> churn ~pattern:Churn.Rolling scale);
      ]
    in
    (* Same config twice over, except for the global heap's structure:
       the lockfree rows isolate the index and must show ZERO heap-0
       lock acquisitions (enforced) — the tentpole's acceptance bar at
       scale, where heap-0 is the natural serialization point. *)
    let modes =
      [
        ("locked", Hoard_config.default);
        ("lockfree", { Hoard_config.default with Hoard_config.global = Hoard_config.Lockfree });
      ]
    in
    let tbl =
      Table.create ~title:"Scale-out matrix: hoard across P x topology (two-tier machines)"
        ~columns:
          [
            ("workload", Table.Left);
            ("P", Table.Right);
            ("topology", Table.Left);
            ("global", Table.Left);
            ("cycles", Table.Right);
            ("cross-node", Table.Right);
            ("cross-socket", Table.Right);
            ("peak live thr", Table.Right);
            ("heap0 locks", Table.Right);
            ("peak held", Table.Right);
            ("envelope", Table.Right);
            ("held/env", Table.Right);
          ]
    in
    List.iteri
      (fun wi (wname, mk) ->
        if wi > 0 then Table.add_separator tbl;
        List.iter
          (fun p ->
            List.iter
              (fun (tname, topo) ->
                List.iter
                  (fun (mname, cfg) ->
                    let r =
                      Runner.run
                        (Runner.spec ?topology:topo (mk ()) (Hoard.factory ~config:cfg ()) ~nprocs:p)
                    in
                    let s = r.Runner.r_stats in
                    let heap0_locks =
                      List.fold_left
                        (fun acc (lname, n, _) -> if lname = "hoard.heap0" then acc + n else acc)
                        0 r.Runner.r_lock_stats
                    in
                    if mname = "lockfree" && heap0_locks > 0 then
                      failwith
                        (Printf.sprintf
                           "exp_scale: lock-free global heap took %d heap-0 lock acquisitions on \
                            %s at %dP (%s)"
                           heap0_locks wname p tname);
                    (* The oracle's envelope, with U = the run's peak
                       live bytes and P = its peak LIVE threads: churn
                       must fit it because exiting threads' heaps are
                       adopted rather than stranded. *)
                    let env =
                      Hoard_config.blowup_envelope cfg ~nprocs:p
                        ~peak_live_threads:r.Runner.r_peak_live_threads
                        ~peak_live_bytes:s.Alloc_stats.peak_live_bytes
                    in
                    let ratio =
                      float_of_int s.Alloc_stats.peak_held_bytes /. float_of_int (max 1 env)
                    in
                    if s.Alloc_stats.peak_held_bytes > env then
                      failwith
                        (Printf.sprintf
                           "exp_scale: blowup envelope violated on %s at %dP (%s, %s): peak held \
                            %d > %d (U=%d, P_live=%d)"
                           wname p tname mname s.Alloc_stats.peak_held_bytes env
                           s.Alloc_stats.peak_live_bytes r.Runner.r_peak_live_threads);
                    Table.add_row tbl
                      [
                        wname;
                        string_of_int p;
                        tname;
                        mname;
                        string_of_int r.Runner.r_cycles;
                        string_of_int r.Runner.r_cross_node_events;
                        string_of_int r.Runner.r_cross_socket_events;
                        string_of_int r.Runner.r_peak_live_threads;
                        string_of_int heap0_locks;
                        kib s.Alloc_stats.peak_held_bytes;
                        kib env;
                        Table.cell_float ratio;
                      ])
                  modes)
              (scale_topologies p))
          procs)
      workloads;
    tables_only [ tbl ]
  in
  {
    id = "exp_scale";
    title = "Scale-out matrix: P in {8..128} x {flat, 2-socket, 4-socket}";
    paper_ref = "extension (beyond the paper's 14-processor machine)";
    describe =
      "threadtest and churn on two-tier machines up to 128 simulated processors: cycles, cross-node \
       and cross-socket coherence, and peak-held vs the O(U + P) envelope with P = peak live threads \
       (enforced)";
    run;
  }

(* --- cost-model sensitivity (methodology validation) --- *)

let costmodel_exp =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let models =
      [ ("cheap memory", Cost_model.cheap_memory); ("default", Cost_model.default); ("expensive memory", Cost_model.expensive_memory) ]
    in
    (* The speedups test the paper's separation; the hoard-fe and hoard-gl
       makespans test the choice between the two global heaps. *)
    let tbl =
      Table.create
        ~title:(Printf.sprintf "Cost-model sensitivity: threadtest speedup and makespan at %d processors" p)
        ~columns:
          [
            ("cost model", Table.Left);
            ("serial", Table.Right);
            ("hoard", Table.Right);
            ("hoard/serial gap", Table.Right);
            ("hoard-fe cycles", Table.Right);
            ("hoard-gl cycles", Table.Right);
            ("gl/fe", Table.Right);
          ]
    in
    List.iter
      (fun (name, cost) ->
        let run alloc ~nprocs = Runner.run (Runner.spec ~cost (threadtest scale) alloc ~nprocs) in
        let sp alloc = Runner.speedup ~base:(run alloc ~nprocs:1) (run alloc ~nprocs:p) in
        let s_serial = sp (Locked_heaps.serial ()) and s_hoard = sp (Hoard.factory ()) in
        let fe = (run (Allocators.hoard_fe ()) ~nprocs:p).Runner.r_cycles
        and gl = (run (Allocators.hoard_gl ()) ~nprocs:p).Runner.r_cycles in
        Table.add_row tbl
          [
            name;
            Table.cell_float s_serial;
            Table.cell_float s_hoard;
            Table.cell_ratio (s_hoard /. s_serial);
            string_of_int fe;
            string_of_int gl;
            Printf.sprintf "%.3f" (float_of_int gl /. float_of_int fe);
          ])
      models;
    tables_only [ tbl ]
  in
  {
    id = "exp_costmodel";
    title = "Cost-model sensitivity";
    paper_ref = "methodology validation";
    describe =
      "the headline separation (Hoard scales, serial collapses) must hold under 3x cost perturbations; \
       hoard-gl vs hoard-fe threadtest makespans show whether the global-heap choice does";
    run;
  }

(* --- memory consumption over time (evaluation extension) --- *)

let timeline_exp =
  let run scale ~procs =
    ignore procs;
    let rounds =
      match scale with
      | Quick -> 20
      | Full -> 60
    in
    let allocs = [ Hoard.factory (); Locked_heaps.private_ownership (); Private_heaps.pure_private () ] in
    let timelines =
      List.map
        (fun alloc ->
          let w = producer_consumer ~rounds ~batch:200 in
          let tl, _ = Runner.run_with ~wrap_allocator:(fun _ a -> Timeline.wrap a) (Runner.spec w alloc ~nprocs:2) in
          (alloc.Alloc_intf.label, tl))
        allocs
    in
    let tbl =
      Table.create ~title:"Held memory over producer-consumer rounds (P=2)"
        ~columns:[ ("allocator", Table.Left); ("peak held", Table.Right); ("samples", Table.Right) ]
    in
    List.iter
      (fun (label, tl) ->
        Table.add_row tbl
          [
            label;
            Printf.sprintf "%d KiB" (Timeline.peak_held tl / 1024);
            string_of_int (List.length (Timeline.samples tl));
          ])
      timelines;
    { tables = [ tbl ]; plot = Some (Timeline.plot timelines ~title:"Held memory vs time (producer-consumer)") }
  in
  {
    id = "exp_timeline";
    title = "Memory consumption over time";
    paper_ref = "evaluation extension (blowup as a curve)";
    describe = "held-memory timelines under producer-consumer: unbounded growth is visible as a climbing curve";
    run;
  }

(* --- application workloads beyond the paper's suite --- *)

let kv_store = function
  | Quick -> Kv_store.make ~params:{ Kv_store.default_params with Kv_store.ops = 6000; key_space = 1200 } ()
  | Full -> Kv_store.make ~params:{ Kv_store.default_params with Kv_store.ops = 32_000; key_space = 2400 } ()

let doc_tree = function
  | Quick -> Doc_tree.make ~params:{ Doc_tree.default_params with Doc_tree.documents = 64 } ()
  | Full -> Doc_tree.make ~params:{ Doc_tree.default_params with Doc_tree.documents = 240 } ()

let apps_exp =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> if List.mem 1 ps then ps else 1 :: ps
      | None -> default_procs scale
    in
    let allocs = figure_allocators () in
    let table_for mk title =
      let tbl =
        Table.create ~title ~columns:(("P", Table.Right) :: List.map (fun a -> (a.Alloc_intf.label, Table.Right)) allocs)
      in
      let results = List.map (fun alloc -> List.map (fun p -> run_one (mk scale) alloc ~nprocs:p) procs) allocs in
      List.iteri
        (fun pi p ->
          let row =
            List.map
              (fun per_alloc -> Table.cell_float (Runner.speedup ~base:(List.hd per_alloc) (List.nth per_alloc pi)))
              results
          in
          Table.add_row tbl (string_of_int p :: row))
        procs;
      tbl
    in
    tables_only
      [
        table_for kv_store "KV store (memcached-style server) — speedup";
        table_for doc_tree "Document builder (parser churn) — speedup";
      ]
  in
  {
    id = "exp_apps";
    title = "Application workloads (KV store, document builder)";
    paper_ref = "evaluation extension (application-level workloads)";
    describe = "a striped-lock KV server and a DOM-style parser-churn application on every allocator";
    run;
  }

(* --- malloc latency distribution (evaluation extension) --- *)

let latency_exp =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "Malloc latency distribution on shbench at %d processors (cycles)" p)
        ~columns:
          [
            ("allocator", Table.Left);
            ("mean", Table.Right);
            ("p50 <=", Table.Right);
            ("p95 <=", Table.Right);
            ("p99 <=", Table.Right);
            ("max", Table.Right);
          ]
    in
    List.iter
      (fun alloc ->
        let spec = Runner.spec (shbench scale) alloc ~nprocs:p in
        let probe, _ = Runner.run_with ~wrap_allocator:(fun _ a -> Latency_probe.wrap a) spec in
        let h = Latency_probe.malloc_latencies probe in
        Table.add_row tbl
          [
            alloc.Alloc_intf.label;
            Table.cell_float (Histogram.mean h);
            string_of_int (Histogram.percentile h 0.5);
            string_of_int (Histogram.percentile h 0.95);
            string_of_int (Histogram.percentile h 0.99);
            (match Histogram.max_value h with
             | Some v -> string_of_int v
             | None -> "-");
          ])
      (all_allocators ());
    tables_only [ tbl ]
  in
  {
    id = "exp_latency";
    title = "Malloc latency distribution";
    paper_ref = "evaluation extension (tail latency)";
    describe = "per-operation latency percentiles: contention appears as a long malloc tail";
    run;
  }

(* --- per-lock contention profile --- *)

let contention_exp =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "Per-lock contention: hoard at %d processors" p)
        ~columns:
          [
            ("workload", Table.Left);
            ("lock", Table.Left);
            ("acquisitions", Table.Right);
            ("spins", Table.Right);
            ("spins/acq", Table.Right);
          ]
    in
    List.iteri
      (fun i (wname, w) ->
        if i > 0 then Table.add_separator tbl;
        let r = Runner.run (Runner.spec w (Hoard.factory ()) ~nprocs:p) in
        let entries = Contention.top ~n:8 (Contention.of_lock_stats r.Runner.r_lock_stats) in
        List.iter
          (fun (e : Contention.entry) ->
            if e.c_acqs > 0 then
              Table.add_row tbl
                [
                  wname;
                  e.c_name;
                  string_of_int e.c_acqs;
                  string_of_int e.c_spins;
                  Table.cell_float (Contention.spins_per_acq e);
                ])
          entries)
      [ ("threadtest", threadtest scale); ("larson", larson scale) ];
    tables_only [ tbl ]
  in
  {
    id = "exp_contention";
    title = "Per-lock contention profile";
    paper_ref = "analysis extension (which lock serialises the run?)";
    describe = "acquisitions and spins per named lock: global-heap vs per-heap lock pressure";
    run;
  }

(* --- lock-discipline ablation --- *)

let abl_lock =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> ps
      | None -> ( match scale with Quick -> [ 2; 4; 8 ] | Full -> [ 2; 4; 8; 14 ])
    in
    let tbl =
      Table.create ~title:"Ablation: spin vs ticket locks (serial allocator on threadtest, cycles)"
        ~columns:
          [ ("P", Table.Right); ("spin cycles", Table.Right); ("ticket cycles", Table.Right); ("ticket/spin", Table.Right) ]
    in
    List.iter
      (fun p ->
        let spin =
          Runner.run (Runner.spec ~lock_kind:Sim.Spin (threadtest scale) (Locked_heaps.serial ()) ~nprocs:p)
        in
        let ticket =
          Runner.run (Runner.spec ~lock_kind:Sim.Ticket (threadtest scale) (Locked_heaps.serial ()) ~nprocs:p)
        in
        Table.add_row tbl
          [
            string_of_int p;
            string_of_int spin.Runner.r_cycles;
            string_of_int ticket.Runner.r_cycles;
            Table.cell_ratio (float_of_int ticket.Runner.r_cycles /. float_of_int spin.Runner.r_cycles);
          ])
      procs;
    tables_only [ tbl ]
  in
  {
    id = "abl_lock";
    title = "Ablation: lock discipline";
    paper_ref = "design ablation";
    describe = "test-and-set spin locks vs FIFO ticket locks under heap contention";
    run;
  }

(* --- oversubscription: more threads than processors --- *)

let oversub =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let allocs = [ Locked_heaps.private_ownership (); Hoard.factory () ] in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "Oversubscription: threadtest cycles at %d processors, threads = k*P" p)
        ~columns:
          (("threads", Table.Right) :: List.map (fun a -> (a.Alloc_intf.label, Table.Right)) allocs)
    in
    List.iter
      (fun k ->
        let row =
          List.map
            (fun alloc ->
              let r = Runner.run (Runner.spec ~nthreads:(k * p) (threadtest scale) alloc ~nprocs:p) in
              string_of_int r.Runner.r_cycles)
            allocs
        in
        Table.add_row tbl (string_of_int (k * p) :: row))
      [ 1; 2; 4 ];
    tables_only [ tbl ]
  in
  {
    id = "exp_oversub";
    title = "Oversubscription (threads > processors)";
    paper_ref = "Section 4 discussion (thread-to-heap mapping)";
    describe = "multiple threads share per-processor heaps; Hoard must keep scaling";
    run;
  }

(* --- heap-count ablation (the implementation's "2P heaps" trick) --- *)

let abl_nheaps =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> ( match scale with Quick -> 4 | Full -> 8)
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "Ablation: heaps per processor (larson + threadtest at %dP, threads = 2P)" p)
        ~columns:
          [
            ("heaps", Table.Right);
            ("larson ops/Mcycle", Table.Right);
            ("threadtest cycles", Table.Right);
            ("lock spins", Table.Right);
          ]
    in
    List.iter
      (fun mult ->
        let cfg = { Hoard_config.default with nheaps = Some (mult * p) } in
        let alloc = hoard_with cfg in
        (* Oversubscribed: two threads per processor, so heap sharing is
           real and extra heaps can pay off. *)
        let lar = Runner.run (Runner.spec ~nthreads:(2 * p) (larson scale) alloc ~nprocs:p) in
        let tt = Runner.run (Runner.spec ~nthreads:(2 * p) (threadtest scale) (hoard_with cfg) ~nprocs:p) in
        Table.add_row tbl
          [
            Printf.sprintf "%dP" mult;
            Table.cell_float (Runner.ops_per_mcycle lar);
            string_of_int tt.Runner.r_cycles;
            string_of_int (lar.Runner.r_lock_spins + tt.Runner.r_lock_spins);
          ])
      [ 1; 2; 4 ];
    tables_only [ tbl ]
  in
  {
    id = "abl_nheaps";
    title = "Ablation: heaps per processor";
    paper_ref = "implementation note (Hoard used more heaps than processors)";
    describe = "does giving Hoard 2P or 4P heaps help when threads outnumber processors?";
    run;
  }

(* --- memory-lifecycle fragmentation (vmem backends) --- *)

(* Churny variants of larson and shbench whose sizes run well past
   max_small (S/2 = 4 KiB), so a large share of the traffic takes the
   large-object path, where the vmem backend's reuse policy decides
   whether the address space keeps growing: the exact-reuse seed policy
   only re-serves identical byte counts, so random-size churn extends
   the mapping area indefinitely, while first-fit coalescing and the
   buddy system recycle it. *)
let frag_larson = function
  | Quick ->
    Larson.make
      ~params:
        {
          Larson.default_params with
          Larson.rounds = 120;
          handoffs = 3;
          objects_per_thread = 48;
          min_size = 64;
          max_size = 256_000;
        }
      ()
  | Full ->
    Larson.make
      ~params:
        {
          Larson.default_params with
          Larson.rounds = 400;
          handoffs = 6;
          objects_per_thread = 96;
          min_size = 64;
          max_size = 256_000;
        }
      ()

let frag_shbench = function
  | Quick ->
    Shbench.make
      ~params:
        { Shbench.default_params with Shbench.ops = 4000; slots_per_thread = 64; min_size = 16; max_size = 256_000 }
      ()
  | Full ->
    Shbench.make
      ~params:
        {
          Shbench.default_params with
          Shbench.ops = 24_000;
          slots_per_thread = 128;
          min_size = 16;
          max_size = 256_000;
        }
      ()

(* The vmem backends the experiment compares; the first is the seed
   (exact reuse), the baseline the "vs seed" columns divide by. *)
let frag_configs =
  [ ("exact (seed)", Vmem_backend.Exact); ("first-fit", Vmem_backend.First_fit); ("buddy", Vmem_backend.Buddy) ]

let frag_exp =
  let run scale ~procs =
    let p =
      match procs with
      | Some (p :: _) -> p
      | _ -> 4
    in
    let run_config w backend ~nprocs =
      let factory = Hoard.factory ~config:({ Hoard_config.default with vmem_backend = backend }) () in
      let r = Runner.run (Runner.spec w factory ~nprocs) in
      (* The memory-lifecycle invariant, enforced (not just reported):
         the CI fragmentation smoke runs this experiment and must exit
         non-zero if a region left the held set with its pages still
         counted resident. *)
      let s = r.Runner.r_stats in
      if s.Alloc_stats.resident_bytes > s.Alloc_stats.held_bytes then
        failwith
          (Printf.sprintf "exp_fragmentation: lifecycle invariant violated on %s (%s): resident %d > held %d"
             w.Workload_intf.w_name (Vmem_backend.kind_name backend) s.Alloc_stats.resident_bytes
             s.Alloc_stats.held_bytes);
      r
    in
    let workload_table (wname, w) =
      let tbl =
        Table.create
          ~title:(Printf.sprintf "Memory lifecycle: %s churn at %d processors" wname p)
          ~columns:
            [
              ("config", Table.Left);
              ("peak mapped", Table.Right);
              ("addr space", Table.Right);
              ("vs seed", Table.Right);
              ("resident@end", Table.Right);
              ("held@end", Table.Right);
              ("maps/unmaps", Table.Right);
              ("decommit/recommit", Table.Right);
            ]
      in
      let seed_span = ref 0 in
      List.iter
        (fun (name, backend) ->
          let r = run_config w backend ~nprocs:p in
          let s = r.Runner.r_stats in
          if backend = Vmem_backend.Exact then seed_span := r.Runner.r_vm_address_space;
          Table.add_row tbl
            [
              name;
              kib r.Runner.r_vm_peak_mapped;
              kib r.Runner.r_vm_address_space;
              Table.cell_ratio (float_of_int r.Runner.r_vm_address_space /. float_of_int (max 1 !seed_span));
              kib r.Runner.r_vm_resident;
              kib s.Alloc_stats.held_bytes;
              Printf.sprintf "%d/%d" s.Alloc_stats.os_maps s.Alloc_stats.os_unmaps;
              Printf.sprintf "%d/%d" s.Alloc_stats.decommits s.Alloc_stats.recommits;
            ])
        frag_configs;
      tbl
    in
    let tables =
      (* The two large-object churners are where the backend reuse policy
         decides address-space growth; the all-small larson and
         threadtest map and unmap only whole superblocks, so every backend
         reuses their address space alike. *)
      List.map workload_table
        [
          ("larson", frag_larson scale);
          ("shbench", frag_shbench scale);
          ("larson-small", larson scale);
          ("threadtest", threadtest scale);
        ]
    in
    (* Uniprocessor guard: the lifecycle refactor must not tax the plain
       small-object path — threadtest at P=1 under each configuration,
       normalised to the seed. *)
    let uni =
      Table.create ~title:"Uniprocessor threadtest under each lifecycle configuration"
        ~columns:[ ("config", Table.Left); ("cycles", Table.Right); ("vs seed", Table.Right) ]
    in
    let seed_cycles = ref 0 in
    List.iter
      (fun (name, backend) ->
        let r = run_config (threadtest scale) backend ~nprocs:1 in
        if backend = Vmem_backend.Exact then seed_cycles := r.Runner.r_cycles;
        Table.add_row uni
          [
            name;
            string_of_int r.Runner.r_cycles;
            Table.cell_ratio (float_of_int r.Runner.r_cycles /. float_of_int (max 1 !seed_cycles));
          ])
      frag_configs;
    tables_only (tables @ [ uni ])
  in
  {
    id = "exp_fragmentation";
    title = "Address-space fragmentation and the memory lifecycle";
    paper_ref = "evaluation extension (vmem backends, residency)";
    describe =
      "large-object churn on every vmem backend: address-space growth, residency, and the resident <= held \
       invariant (enforced)";
    run;
  }

(* --- exp_server: latency-tail SLOs on the front-tier request mix --- *)

let server_params profile scale =
  let requests =
    match scale with
    | Quick -> 1200
    | Full -> 8000
  in
  { Server_mix.default_params with Server_mix.profile; requests }

(* The latency-tail comparison set: the paper's serial and
   private-ownership baselines against the Hoard configurations whose
   whole purpose is the tail (base, lock-free front end, lock-free
   global heap with deferred remote-free lists). *)
let server_allocators () =
  [
    Locked_heaps.serial ();
    Locked_heaps.private_ownership ();
    Hoard.factory ();
    Allocators.hoard_fe ();
    Allocators.hoard_gl ();
  ]

let server_exp =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> ps
      | None -> ( match scale with Quick -> [ 8 ] | Full -> [ 4; 8; 16 ])
    in
    (* One RSS curve per allocator config, drawn at the gate's processor
       count when it is in the sweep. *)
    let plot_p = if List.mem 8 procs then 8 else List.hd procs in
    let allocs = server_allocators () in
    let outputs =
      List.map
        (fun profile ->
          let tbl =
            Table.create
              ~title:
                (Printf.sprintf "Server mix (%s): per-request latency, simulated cycles"
                   (Server_mix.profile_name profile))
              ~columns:
                [
                  ("allocator", Table.Left);
                  ("P", Table.Right);
                  ("requests", Table.Right);
                  ("p50", Table.Right);
                  ("p99", Table.Right);
                  ("p999", Table.Right);
                  ("max", Table.Right);
                  ("RSS peak KiB", Table.Right);
                  ("cycles", Table.Right);
                ]
          in
          let timelines = ref [] in
          List.iter
            (fun alloc ->
              List.iter
                (fun p ->
                  let r = Slo.run_server ~params:(server_params profile scale) alloc ~nprocs:p in
                  let h = Server_mix.request_latencies r.Slo.sv_recorder in
                  Table.add_row tbl
                    [
                      alloc.Alloc_intf.label;
                      string_of_int p;
                      string_of_int (Histogram.count h);
                      string_of_int (Histogram.percentile h 0.5);
                      string_of_int (Histogram.percentile h 0.99);
                      string_of_int (Histogram.percentile h 0.999);
                      string_of_int (Option.value ~default:0 (Histogram.max_value h));
                      string_of_int ((r.Slo.sv_stats.Alloc_stats.peak_resident_bytes + 1023) / 1024);
                      string_of_int r.Slo.sv_cycles;
                    ];
                  if p = plot_p then timelines := (alloc.Alloc_intf.label, r.Slo.sv_timeline) :: !timelines)
                procs)
            allocs;
          let plot =
            Timeline.plot ~metric:Timeline.Resident (List.rev !timelines)
              ~title:
                (Printf.sprintf "RSS over time — server mix (%s, %dP)" (Server_mix.profile_name profile)
                   plot_p)
          in
          (tbl, plot))
        Server_mix.profiles
    in
    { tables = List.map fst outputs; plot = Some (String.concat "\n" (List.map snd outputs)) }
  in
  {
    id = "exp_server";
    title = "Front-tier server latency tails (p50/p99/p999) and RSS over time";
    paper_ref = "evaluation extension (latency-tail SLO observability)";
    describe =
      "steady/bursty/flash request mixes over the latency-tail comparison set: per-request percentile \
       tables in simulated cycles plus a resident-memory curve per allocator config";
    run;
  }

(* --- registry --- *)

(* --- the remote-free path: bounded queues vs deferred lists --- *)

(* The pipelined producer-consumer makes every free remote and concurrent
   with the owner's allocation burst, so this is where the remote-free
   discipline shows: hoard-fe's bounded queues drain under the owner's
   heap lock (and block the producer mid-burst), hoard-gl's deferred
   lists take one CAS per free and one exchange per reclaim. The
   companion instrumented pass ([--metrics], obs_workload below) exports
   the per-lock acquisition counts CI gates on. *)
let remote_exp =
  let run scale ~procs =
    let procs =
      match procs with
      | Some ps -> ps
      | None -> ( match scale with Quick -> [ 2; 8 ] | Full -> [ 2; 8; 14 ])
    in
    let allocs = [ Allocators.hoard_fe (); Allocators.hoard_gl () ] in
    let tbl =
      Table.create ~title:"Remote frees: bounded queues (hoard-fe) vs deferred lists (hoard-gl)"
        ~columns:
          [
            ("allocator", Table.Left);
            ("P", Table.Right);
            ("cycles", Table.Right);
            ("rq enq", Table.Right);
            ("deferred enq", Table.Right);
            ("reclaims", Table.Right);
            ("blocks/reclaim", Table.Right);
            ("large maps", Table.Right);
            ("large hits", Table.Right);
          ]
    in
    List.iter
      (fun alloc ->
        List.iter
          (fun p ->
            let r = run_one (prodcons_pipelined scale) alloc ~nprocs:p in
            let s = r.Runner.r_stats in
            Table.add_row tbl
              [
                alloc.Alloc_intf.label;
                string_of_int p;
                string_of_int r.Runner.r_cycles;
                string_of_int s.Alloc_stats.remote_enqueues;
                string_of_int s.Alloc_stats.deferred_enqueues;
                string_of_int s.Alloc_stats.deferred_reclaims;
                (if s.Alloc_stats.deferred_reclaims = 0 then "-"
                 else
                   Table.cell_ratio
                     (float_of_int s.Alloc_stats.deferred_enqueues
                     /. float_of_int s.Alloc_stats.deferred_reclaims));
                string_of_int s.Alloc_stats.large_maps;
                string_of_int s.Alloc_stats.large_cache_hits;
              ])
          procs)
      allocs;
    tables_only [ tbl ]
  in
  {
    id = "exp_remote";
    title = "Remote-free discipline";
    paper_ref = "beyond the paper: deferred remote frees";
    describe =
      "pipelined producer-consumer (all frees remote, concurrent with the owner): bounded remote \
       queues vs CAS-push deferred lists";
    run;
  }

let all () =
  [
    taxonomy;
    benchmarks_table;
    program_stats;
    fragmentation;
    uniproc_overhead;
    speedup_figure ~id:"fig_threadtest" ~title:"Figure: threadtest" ~paper_ref:"threadtest speedup figure"
      ~describe:"batch allocate/free of small objects; heap contention stress" ~workload_of_scale:threadtest;
    speedup_figure ~id:"fig_shbench" ~title:"Figure: shbench" ~paper_ref:"shbench speedup figure"
      ~describe:"random-size working-set churn (SmartHeap benchmark)" ~workload_of_scale:shbench;
    larson_figure;
    speedup_figure ~id:"fig_active_false" ~title:"Figure: active-false" ~paper_ref:"active-false speedup figure"
      ~describe:"allocator-induced (active) false sharing" ~workload_of_scale:active_false;
    speedup_figure ~id:"fig_passive_false" ~title:"Figure: passive-false" ~paper_ref:"passive-false speedup figure"
      ~describe:"passively induced false sharing via cross-thread free" ~workload_of_scale:passive_false;
    speedup_figure ~id:"fig_bem" ~title:"Figure: BEM-like engine" ~paper_ref:"BEMengine speedup figure"
      ~describe:"phased solver profile (synthetic substitute for the proprietary BEMengine)"
      ~workload_of_scale:bem;
    speedup_figure ~id:"fig_barnes" ~title:"Figure: Barnes-Hut" ~paper_ref:"Barnes-Hut speedup figure"
      ~describe:"octree n-body simulation; compute-dominated" ~workload_of_scale:barnes;
    blowup_exp;
    frag_exp;
    falseshare_exp;
    oversub;
    latency_exp;
    contention_exp;
    remote_exp;
    apps_exp;
    timeline_exp;
    server_exp;
    costmodel_exp;
    numa_exp;
    scale_exp;
    abl_f;
    abl_k;
    abl_sbsize;
    abl_lock;
    abl_nheaps;
  ]

let find id = List.find_opt (fun e -> e.id = id) (all ())

let allocator label = Allocators.find label

let workload name scale =
  match name with
  | "threadtest" -> Some (threadtest scale)
  | "shbench" -> Some (shbench scale)
  | "larson" -> Some (larson scale)
  | "active-false" -> Some (active_false scale)
  | "passive-false" -> Some (passive_false scale)
  | "bem" -> Some (bem scale)
  | "barnes-hut" -> Some (barnes scale)
  | "producer-consumer" ->
    Some (producer_consumer ~rounds:(List.nth (prodcons_rounds scale) 2) ~batch:200)
  | "producer-consumer-pipelined" -> Some (prodcons_pipelined scale)
  | "phased-blowup" -> Some (phased_blowup ~rounds:16)
  | "kv-store" -> Some (kv_store scale)
  | "doc-tree" -> Some (doc_tree scale)
  | "server-steady" -> Some (Server_mix.make ~params:(server_params Server_mix.Steady scale) ())
  | "server-bursty" -> Some (Server_mix.make ~params:(server_params Server_mix.Bursty scale) ())
  | "server-flash" -> Some (Server_mix.make ~params:(server_params Server_mix.Flash scale) ())
  | _ ->
    (* churn-<pattern>-<body>, e.g. "churn-wave-larson". *)
    (match String.split_on_char '-' name with
     | [ "churn"; pat; bod ] ->
       (match (Churn.pattern_of_string pat, Churn.body_of_string bod) with
        | Some pattern, Some body -> Some (churn ~pattern ~body scale)
        | _ -> None)
     | _ -> None)

let workload_names =
  [
    "threadtest"; "shbench"; "larson"; "active-false"; "passive-false"; "bem"; "barnes-hut";
    "producer-consumer"; "producer-consumer-pipelined"; "phased-blowup"; "kv-store"; "doc-tree";
    "server-steady"; "server-bursty"; "server-flash";
  ]
  @ List.concat_map
      (fun pat ->
        List.map
          (fun bod -> Printf.sprintf "churn-%s-%s" (Churn.pattern_name pat) (Churn.body_name bod))
          Churn.bodies)
      Churn.patterns

let ids () = List.map (fun e -> e.id) (all ())

(* Representative workload for an experiment id: what [--metrics] runs its
   instrumented companion pass on. *)
let obs_workload id scale =
  let name =
    match id with
    | "fig_shbench" -> "shbench"
    | "fig_larson" | "exp_oversub" | "abl_lock" -> "larson"
    | "fig_active_false" -> "active-false"
    | "fig_passive_false" -> "passive-false"
    | "fig_bem" -> "bem"
    | "fig_barnes" -> "barnes-hut"
    | "exp_blowup" -> "phased-blowup"
    | "exp_remote" -> "producer-consumer-pipelined"
    | "exp_fragmentation" -> "larson"
    | "exp_apps" -> "kv-store"
    | "exp_server" -> "server-bursty"
    | "exp_scale" -> "churn-wave-threadtest"
    | _ -> "threadtest"
  in
  match workload name scale with
  | Some w -> w
  | None -> assert false (* every name above is registered *)
