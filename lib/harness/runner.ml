type spec = {
  workload : Workload_intf.t;
  allocator : Alloc_intf.factory;
  nprocs : int;
  nthreads : int option;
  cost : Cost_model.t;
  lock_kind : Sim.lock_kind;
  topology : (int * int) option;
}

let spec ?nthreads ?(cost = Cost_model.default) ?(lock_kind = Sim.Spin) ?topology workload allocator ~nprocs =
  { workload; allocator; nprocs; nthreads; cost; lock_kind; topology }

type result = {
  r_workload : string;
  r_allocator : string;
  r_nprocs : int;
  r_nthreads : int;
  r_cycles : int;
  r_ops : int;
  r_stats : Alloc_stats.snapshot;
  r_invalidations : int;
  r_coherence_misses : int;
  r_lock_acquisitions : int;
  r_lock_spins : int;
  r_lock_stats : (string * int * int) list;
  r_vm_peak_mapped : int;
  r_vm_address_space : int;
  r_vm_resident : int;
  r_cross_node_events : int;
  r_cross_socket_events : int;
  r_peak_live_threads : int;
}

let run_with ?fuzz ?on_sim ?wrap_platform ?post ~wrap_allocator
    { workload; allocator; nprocs; nthreads; cost; lock_kind; topology } =
  let nthreads =
    match nthreads with
    | Some n -> n
    | None -> nprocs
  in
  let sim =
    Sim.create ~cost ~lock_kind ?fuzz_schedule:fuzz ~vmem_backend:allocator.Alloc_intf.vmem_backend ?topology
      ~nprocs ()
  in
  let pf = Sim.platform sim in
  (* The allocator always sees the raw platform; only the workload's view
     is wrapped (e.g. with the sanitizer's access checker). *)
  let a = allocator.Alloc_intf.instantiate pf in
  (match on_sim with
   | Some f -> f sim
   | None -> ());
  let w, a = wrap_allocator pf a in
  let wpf =
    match wrap_platform with
    | Some w -> w pf
    | None -> pf
  in
  workload.Workload_intf.spawn sim wpf a ~nthreads;
  Sim.run sim;
  a.Alloc_intf.check ();
  (match post with
   | Some f -> f w a
   | None -> ());
  let lock_stats = Sim.lock_stats sim in
  let acqs, spins =
    List.fold_left (fun (acc_a, acc_s) (_, a', s') -> (acc_a + a', acc_s + s')) (0, 0) lock_stats
  in
  let vm = Sim.vmem sim in
  Vmem.check vm;
  ( w,
    {
      r_workload = workload.Workload_intf.w_name;
      r_allocator = allocator.Alloc_intf.label;
      r_nprocs = nprocs;
      r_nthreads = nthreads;
      r_cycles = Sim.total_cycles sim;
      r_ops = workload.Workload_intf.total_ops ~nthreads;
      r_stats = a.Alloc_intf.stats ();
      r_invalidations = Cache.total_invalidations (Sim.cache sim);
      r_coherence_misses = Cache.total_coherence_misses (Sim.cache sim);
      r_lock_acquisitions = acqs;
      r_lock_spins = spins;
      r_lock_stats = lock_stats;
      r_vm_peak_mapped = Vmem.peak_bytes vm;
      r_vm_address_space = Vmem.address_space_bytes vm;
      r_vm_resident = Vmem.resident_bytes vm;
      r_cross_node_events = Cache.total_cross_node_events (Sim.cache sim);
      r_cross_socket_events = Cache.total_cross_socket_events (Sim.cache sim);
      r_peak_live_threads = Sim.peak_live_threads sim;
    } )

let run spec = snd (run_with ~wrap_allocator:(fun _ a -> ((), a)) spec)

let speedup ~base r = float_of_int base.r_cycles /. float_of_int r.r_cycles

let ops_per_mcycle r = 1_000_000.0 *. float_of_int r.r_ops /. float_of_int r.r_cycles

let fragmentation r = Alloc_stats.fragmentation r.r_stats
