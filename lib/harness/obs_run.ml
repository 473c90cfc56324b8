type bundle = {
  b_name : string;
  b_nprocs : int;
  b_cycles : int;
  b_stats : Alloc_stats.snapshot;
  b_obs : Obs.t;
  b_latency : Latency_probe.t;
  b_lock_stats : (string * int * int) list;
  b_contention : Contention.entry list;
  b_perfetto : string;
  b_heatmap : string;
}

(* Lock-hold spans retained for the Perfetto export. Long runs release
   locks millions of times; past this cap the trace stops gaining detail
   and only gains megabytes. *)
let max_spans = 50_000

let heatmap_of hoard =
  let classes = Hoard.size_classes hoard in
  let ncols = Size_class.count classes in
  let rows =
    Array.to_list (Hoard.fullness_profile hoard)
    |> List.map (fun (label, profile) ->
           ( label,
             Array.to_list profile
             |> List.map (fun (count, fullness) -> if count = 0 then None else Some fullness) ))
  in
  let legend =
    let b = Buffer.create 128 in
    Buffer.add_string b "columns (size class -> block size): ";
    Array.iteri
      (fun c size ->
        if c > 0 then Buffer.add_string b " ";
        Buffer.add_string b (Printf.sprintf "%d=%dB" c size))
      (Size_class.sizes classes);
    Buffer.contents b
  in
  Heatmap.render ~title:"superblock fullness (heap x size class, deciles)" ~ncols ~rows ~legend ()

let perfetto_of ~name ~nprocs ~cycles obs spans =
  let p = Perfetto.create () in
  Perfetto.process_name p ~pid:0 (name ^ " (simulated machine)");
  for proc = 0 to nprocs - 1 do
    Perfetto.thread_name p ~pid:0 ~tid:proc (Printf.sprintf "proc%d" proc)
  done;
  List.iter
    (fun (rname, ring) ->
      Event_ring.iter ring (fun (e : Event_ring.event) ->
          Perfetto.instant p ~name:(Event_ring.kind_name e.kind) ~cat:("ring." ^ rname) ~ts:e.at ~pid:0
            ~tid:(max 0 e.who)
            ~args:
              [
                ("heap", string_of_int e.heap);
                ("sclass", string_of_int e.sclass);
                ("arg", string_of_int e.arg);
              ]
            ()))
    (Obs.rings obs);
  List.iter
    (fun (lname, proc, t0, t1) ->
      Perfetto.span p ~name:lname ~cat:"lock" ~ts:t0 ~dur:(max 1 (t1 - t0)) ~pid:0 ~tid:proc ())
    spans;
  Perfetto.counter p ~name:"run" ~ts:cycles ~pid:0 ~series:[ ("cycles", cycles) ];
  Perfetto.to_json p

let run_workload ?(config = Hoard_config.default) workload ~nprocs =
  let obs = Obs.create () in
  let hoard = ref None in
  let factory =
    {
      (Hoard.factory ~config ()) with
      Alloc_intf.instantiate =
        (fun pf ->
          let h = Hoard.create ~config ~obs pf in
          hoard := Some h;
          Hoard.allocator h);
    }
  in
  let cont = Contention.create () in
  let spans = ref [] and nspans = ref 0 in
  let on_sim sim =
    let lock_ring = Obs.new_ring obs "locks" in
    Sim.set_lock_hooks sim
      ~on_acquire:(fun ~name ~proc ~spins ~at ->
        Contention.on_acquire cont ~name ~spins;
        if spins > 0 then
          Event_ring.record lock_ring ~at ~kind:Event_ring.Lock_acquire ~who:proc ~heap:(-1) ~sclass:(-1)
            ~arg:spins)
      ~on_release:(fun ~name ~proc ~acquired_at ~at ->
        if !nspans < max_spans then begin
          incr nspans;
          spans := (name, proc, acquired_at, at) :: !spans
        end)
      ()
  in
  let wrap_allocator _pf a =
    let probe, a = Latency_probe.wrap a in
    Latency_probe.publish probe (Obs.metrics obs);
    (probe, a)
  in
  (* Return any front-end-cached blocks before reading the final figures;
     [check] is exact on both sides of the flush. *)
  let post _ (a : Alloc_intf.t) =
    Hoard.flush_caches (Option.get !hoard);
    a.Alloc_intf.check ()
  in
  let probe, r = Runner.run_with ~on_sim ~wrap_allocator ~post (Runner.spec workload factory ~nprocs) in
  let name = workload.Workload_intf.w_name in
  let lock_stats = r.Runner.r_lock_stats in
  let contention = Contention.finalize cont ~lock_stats ~spin_cost:Cost_model.default.Cost_model.lock_spin in
  Contention.publish contention (Obs.metrics obs);
  let cycles = r.Runner.r_cycles in
  {
    b_name = name;
    b_nprocs = nprocs;
    b_cycles = cycles;
    b_stats = r.Runner.r_stats;
    b_obs = obs;
    b_latency = probe;
    b_lock_stats = lock_stats;
    b_contention = contention;
    b_perfetto = perfetto_of ~name ~nprocs ~cycles obs (List.rev !spans);
    b_heatmap = heatmap_of (Option.get !hoard);
  }

let metrics_json b =
  Printf.sprintf
    "{\"run\":{\"name\":%s,\"nprocs\":%d,\"cycles\":%d,\"events_recorded\":%d,\"events_dropped\":%d},\n\
     \"metrics\":%s}"
    (Perfetto.str b.b_name) b.b_nprocs b.b_cycles (Obs.total_recorded b.b_obs) (Obs.total_dropped b.b_obs)
    (Metrics.to_json (Obs.metrics b.b_obs))

let contention_table ?(n = 10) b =
  let tbl =
    Table.create ~title:"lock contention (spin cycles, worst first)"
      ~columns:
        [
          ("lock", Table.Left);
          ("acqs", Table.Right);
          ("spins", Table.Right);
          ("spins/acq", Table.Right);
          ("contended", Table.Right);
          ("max spin", Table.Right);
          ("spin cycles", Table.Right);
        ]
  in
  List.iter
    (fun (e : Contention.entry) ->
      Table.add_row tbl
        [
          e.c_name;
          string_of_int e.c_acqs;
          string_of_int e.c_spins;
          Table.cell_float (Contention.spins_per_acq e);
          string_of_int e.c_contended;
          string_of_int e.c_max_spin;
          string_of_int e.c_spin_cycles;
        ])
    (Contention.top ~n b.b_contention);
  tbl
