type snapshot = {
  mallocs : int;
  frees : int;
  bytes_requested : int;
  live_bytes : int;
  peak_live_bytes : int;
  held_bytes : int;
  peak_held_bytes : int;
  os_maps : int;
  os_unmaps : int;
  resident_bytes : int;
  peak_resident_bytes : int;
  decommits : int;
  recommits : int;
  sb_to_global : int;
  sb_from_global : int;
  remote_frees : int;
  cache_hits : int;
  cache_fills : int;
  cache_flushes : int;
  remote_enqueues : int;
  remote_drains : int;
  remote_forwards : int;
  large_maps : int;
  large_cache_hits : int;
  deferred_enqueues : int;
  deferred_reclaims : int;
  orphan_adoptions : int;
  cas_retries : int;
  cas_retries_by : (string * int) list;
  global_pushes : int;
  global_pops : int;
  global_busy_misses : int;
}

(* A shard's event ring and the stamps its events carry: the platform's
   clock and processor, and the heap id of the domain ([-1] when not
   heap-scoped; a thread cache's follows its thread). *)
type tracer = { ring : Event_ring.t; pf : Platform.t; heap : unit -> int }

(* One shard per lock domain (a heap, a size class, the large allocator, a
   thread's front-end cache): plain mutable counters, every write made
   under that domain's lock (or by the domain's single owning thread), so
   the malloc/free hot path touches no cross-heap state. The counted
   events are one int per [Event_ring.kind], written by [note] together
   with the domain's ring, when it has one. *)
type shard = {
  mutable mallocs : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int; (* this shard's own high-water mark *)
  mutable cache_fills : int;
  mutable remote_drains : int;
  events : int array; (* per [Event_ring.kind_index] *)
  mutable tracer : tracer option;
  mutable peers : shard array; (* every shard of the owning [t], for peak merging *)
  merged_peak : int Atomic.t; (* shared with the owning [t] *)
}

(* The OS-map path (superblock-granularity, adjacent to a page_map call)
   runs on atomics instead: exact held bytes and an exact A_peak without
   any per-shard charging ambiguity when a superblock is mapped by one
   heap and unmapped by another. *)
type t = {
  shards : shard array Atomic.t;
  grow_mu : Mutex.t; (* serialises [add_shard]; a host mutex, never simulated *)
  held : int Atomic.t;
  peak_held : int Atomic.t;
  os_maps : int Atomic.t;
  os_unmaps : int Atomic.t;
  resident : int Atomic.t; (* mapped-and-committed bytes: the simulated RSS *)
  peak_resident : int Atomic.t;
  decommits : int Atomic.t;
  recommits : int Atomic.t;
  cas_retries : int Atomic.t; (* failed CASes in lock-free structures; fired with no lock held *)
  retry_by : (string * int Atomic.t) list Atomic.t;
      (* per-structure breakdown of [cas_retries], in registration order;
         appended under [grow_mu], read lock-free *)
  peak_live : int Atomic.t; (* merged high-water, refreshed on map/unmap/snapshot *)
}

let new_shard merged_peak =
  {
    mallocs = 0;
    frees = 0;
    bytes_requested = 0;
    live_bytes = 0;
    peak_live_bytes = 0;
    cache_fills = 0;
    remote_drains = 0;
    events = Array.make Event_ring.nkinds 0;
    tracer = None;
    peers = [||];
    merged_peak;
  }

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Alloc_stats.create: shards must be >= 1";
  let peak_live = Atomic.make 0 in
  let shard_arr = Array.init shards (fun _ -> new_shard peak_live) in
  Array.iter (fun sh -> sh.peers <- shard_arr) shard_arr;
  {
    shards = Atomic.make shard_arr;
    grow_mu = Mutex.create ();
    held = Atomic.make 0;
    peak_held = Atomic.make 0;
    os_maps = Atomic.make 0;
    os_unmaps = Atomic.make 0;
    resident = Atomic.make 0;
    peak_resident = Atomic.make 0;
    decommits = Atomic.make 0;
    recommits = Atomic.make 0;
    cas_retries = Atomic.make 0;
    retry_by = Atomic.make [];
    peak_live;
  }

let nshards t = Array.length (Atomic.get t.shards)

let shard t i = (Atomic.get t.shards).(i)

(* Appends a fresh shard (a new lock domain created after construction,
   e.g. a thread's front-end cache). Peers of existing shards are
   refreshed so merged-peak samples see the newcomer; a sample racing the
   refresh reads the old array and stays a valid lower bound. *)
let add_shard t =
  Mutex.lock t.grow_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.grow_mu)
    (fun () ->
      let old = Atomic.get t.shards in
      let sh = new_shard t.peak_live in
      let arr = Array.append old [| sh |] in
      Array.iter (fun s -> s.peers <- arr) arr;
      Atomic.set t.shards arr;
      sh)

let attach_ring sh ring pf ~heap = sh.tracer <- Some { ring; pf; heap }

let ring sh = Option.map (fun tr -> tr.ring) sh.tracer

(* The clock is read only with a ring attached: on the simulator it is a
   platform effect, which an untraced run never performs. *)
let record sh kind ~sclass ~arg =
  match sh.tracer with
  | None -> ()
  | Some { ring; pf; heap } ->
    Event_ring.record ring ~at:(pf.Platform.now ()) ~kind ~who:(pf.Platform.self_proc ()) ~heap:(heap ()) ~sclass
      ~arg

let note ?(n = 1) ?(trace = true) sh kind ~sclass ~arg =
  let i = Event_ring.kind_index kind in
  sh.events.(i) <- sh.events.(i) + n;
  if trace then record sh kind ~sclass ~arg

let rec store_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then store_max a v

(* Sample the merged peak while this shard is climbing past its own
   high-water mark. The sum reads peer shards unsynchronised (stale reads
   possible, torn ones not), giving a lower bound on the true global peak;
   once shards plateau the branch stops firing, so the steady-state hot
   path stays free of cross-shard traffic. *)
let bump_live sh bytes =
  let live = sh.live_bytes + bytes in
  sh.live_bytes <- live;
  if live > sh.peak_live_bytes then begin
    sh.peak_live_bytes <- live;
    store_max sh.merged_peak (Array.fold_left (fun acc p -> acc + p.live_bytes) 0 sh.peers)
  end

let on_malloc sh ~requested ~usable =
  sh.mallocs <- sh.mallocs + 1;
  sh.bytes_requested <- sh.bytes_requested + requested;
  bump_live sh usable

let on_free sh ~usable =
  sh.frees <- sh.frees + 1;
  sh.live_bytes <- sh.live_bytes - usable

(* Front-end events. A cached block stays charged to its superblock's heap
   ([u]) until the drain returns it, so live_bytes moves only when blocks
   cross the heap boundary: + at fill (blocks leave the heap core for a
   cache), - at drain (queued blocks re-enter a heap core). Cache-hit
   mallocs and cached frees leave live_bytes alone. *)
let on_cache_hit sh ~requested =
  sh.mallocs <- sh.mallocs + 1;
  sh.bytes_requested <- sh.bytes_requested + requested

let on_cached_free sh = sh.frees <- sh.frees + 1

let on_cache_fill sh ~blocks ~bytes =
  sh.cache_fills <- sh.cache_fills + blocks;
  bump_live sh bytes

let on_drain sh ~usable =
  sh.remote_drains <- sh.remote_drains + 1;
  sh.live_bytes <- sh.live_bytes - usable

(* Labelled retry accounting: every lock-free structure obtains its hook
   once at construction (under [grow_mu], so concurrent allocators sharing
   a [t] stay safe) and fires it on each failed CAS. The hook bumps both
   the unified total and the structure's own counter, so
   [cas_retries = sum of cas_retries_by] holds at every quiescent point. *)
let retry_hook t ~label =
  Mutex.lock t.grow_mu;
  let counter =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.grow_mu)
      (fun () ->
        let cur = Atomic.get t.retry_by in
        match List.assoc_opt label cur with
        | Some c -> c
        | None ->
            let c = Atomic.make 0 in
            Atomic.set t.retry_by (cur @ [ (label, c) ]);
            c)
  in
  fun () ->
    Atomic.incr t.cas_retries;
    Atomic.incr counter

(* Cross-shard reads are unsynchronised (possibly stale, never torn); the
   sum is exact on the deterministic simulator and at quiescent points on
   the host, which is where peaks are read. *)
let live_sum t = Array.fold_left (fun acc sh -> acc + sh.live_bytes) 0 (Atomic.get t.shards)

let refresh_peak_live t = store_max t.peak_live (live_sum t)

let bump_resident t bytes =
  let r = Atomic.fetch_and_add t.resident bytes + bytes in
  store_max t.peak_resident r

let on_map t ~bytes =
  let held = Atomic.fetch_and_add t.held bytes + bytes in
  store_max t.peak_held held;
  Atomic.incr t.os_maps;
  bump_resident t bytes;
  refresh_peak_live t

(* [resident]: whether the region still had committed pages when unmapped
   (false for a large-cache region, already decommitted). *)
let on_unmap ?(resident = true) t ~bytes =
  ignore (Atomic.fetch_and_add t.held (-bytes));
  Atomic.incr t.os_unmaps;
  if resident then ignore (Atomic.fetch_and_add t.resident (-bytes));
  refresh_peak_live t

let on_decommit t ~bytes =
  ignore (Atomic.fetch_and_add t.resident (-bytes));
  Atomic.incr t.decommits

let on_recommit t ~bytes =
  bump_resident t bytes;
  Atomic.incr t.recommits

let snapshot t =
  let mallocs = ref 0
  and frees = ref 0
  and bytes_requested = ref 0
  and live = ref 0
  and fills = ref 0
  and drains = ref 0
  and events = Array.make Event_ring.nkinds 0 in
  Array.iter
    (fun sh ->
      mallocs := !mallocs + sh.mallocs;
      frees := !frees + sh.frees;
      bytes_requested := !bytes_requested + sh.bytes_requested;
      live := !live + sh.live_bytes;
      fills := !fills + sh.cache_fills;
      drains := !drains + sh.remote_drains;
      Array.iteri (fun i n -> events.(i) <- events.(i) + n) sh.events)
    (Atomic.get t.shards);
  let count kind = events.(Event_ring.kind_index kind) in
  (* Per-shard peaks are NOT summed here: a block malloc'd under one heap
     may be freed under another after its superblock migrates, so the sum
     of local peaks ratchets above any live total ever reached. The merged
     peak is the one sampled on shard-local rises, maps/unmaps and
     snapshots — exact when a single shard exists. *)
  store_max t.peak_live !live;
  {
    mallocs = !mallocs;
    frees = !frees;
    bytes_requested = !bytes_requested;
    live_bytes = !live;
    peak_live_bytes = Atomic.get t.peak_live;
    held_bytes = Atomic.get t.held;
    peak_held_bytes = Atomic.get t.peak_held;
    os_maps = Atomic.get t.os_maps;
    os_unmaps = Atomic.get t.os_unmaps;
    resident_bytes = Atomic.get t.resident;
    peak_resident_bytes = Atomic.get t.peak_resident;
    decommits = Atomic.get t.decommits;
    recommits = Atomic.get t.recommits;
    sb_to_global = count Event_ring.Sb_to_global;
    sb_from_global = count Event_ring.Sb_from_global;
    remote_frees = count Event_ring.Remote_free;
    cache_hits = count Event_ring.Cache_hit;
    cache_fills = !fills;
    cache_flushes = count Event_ring.Cache_flush;
    remote_enqueues = count Event_ring.Remote_enqueue;
    remote_drains = !drains;
    remote_forwards = count Event_ring.Remote_forward;
    large_maps = count Event_ring.Large_map;
    large_cache_hits = count Event_ring.Large_cache_hit;
    deferred_enqueues = count Event_ring.Deferred_enqueue;
    deferred_reclaims = count Event_ring.Deferred_reclaim;
    orphan_adoptions = count Event_ring.Orphan_adopt;
    cas_retries = Atomic.get t.cas_retries;
    cas_retries_by = List.map (fun (l, c) -> (l, Atomic.get c)) (Atomic.get t.retry_by);
    global_pushes = count Event_ring.Global_push;
    global_pops = count Event_ring.Global_pop;
    global_busy_misses = count Event_ring.Global_busy_miss;
  }

let fragmentation (s : snapshot) =
  if s.peak_live_bytes = 0 then nan else float_of_int s.peak_held_bytes /. float_of_int s.peak_live_bytes

let publish t metrics =
  let reg name f = Metrics.register metrics ~name:("alloc." ^ name) (fun () -> Metrics.Int (f (snapshot t))) in
  reg "mallocs" (fun s -> s.mallocs);
  reg "frees" (fun s -> s.frees);
  reg "bytes_requested" (fun s -> s.bytes_requested);
  reg "live_bytes" (fun s -> s.live_bytes);
  reg "peak_live_bytes" (fun s -> s.peak_live_bytes);
  reg "held_bytes" (fun s -> s.held_bytes);
  reg "peak_held_bytes" (fun s -> s.peak_held_bytes);
  reg "os_maps" (fun s -> s.os_maps);
  reg "os_unmaps" (fun s -> s.os_unmaps);
  reg "resident_bytes" (fun s -> s.resident_bytes);
  reg "peak_resident_bytes" (fun s -> s.peak_resident_bytes);
  reg "decommits" (fun s -> s.decommits);
  reg "recommits" (fun s -> s.recommits);
  reg "sb_to_global" (fun s -> s.sb_to_global);
  reg "sb_from_global" (fun s -> s.sb_from_global);
  reg "remote_frees" (fun s -> s.remote_frees);
  reg "cache_hits" (fun s -> s.cache_hits);
  reg "cache_fills" (fun s -> s.cache_fills);
  reg "cache_flushes" (fun s -> s.cache_flushes);
  reg "remote_enqueues" (fun s -> s.remote_enqueues);
  reg "remote_drains" (fun s -> s.remote_drains);
  reg "remote_forwards" (fun s -> s.remote_forwards);
  reg "large_maps" (fun s -> s.large_maps);
  reg "large_cache_hits" (fun s -> s.large_cache_hits);
  reg "deferred_enqueues" (fun s -> s.deferred_enqueues);
  reg "deferred_reclaims" (fun s -> s.deferred_reclaims);
  reg "orphan_adoptions" (fun s -> s.orphan_adoptions);
  reg "cas_retries" (fun s -> s.cas_retries);
  reg "global_pushes" (fun s -> s.global_pushes);
  reg "global_pops" (fun s -> s.global_pops);
  reg "global_busy_misses" (fun s -> s.global_busy_misses);
  (* One gauge per retry label registered so far (structures obtain their
     hooks at allocator construction, before publish). *)
  List.iter
    (fun (label, _) ->
      reg ("cas_retries." ^ label) (fun s ->
          match List.assoc_opt label s.cas_retries_by with
          | Some n -> n
          | None -> 0))
    (Atomic.get t.retry_by);
  if List.mem_assoc "global" (Atomic.get t.retry_by) then
    reg "global_cas_retries" (fun s ->
        match List.assoc_opt "global" s.cas_retries_by with
        | Some n -> n
        | None -> 0);
  Metrics.register metrics ~name:"alloc.fragmentation" (fun () ->
      Metrics.Float (fragmentation (snapshot t)))

let pp_snapshot fmt (s : snapshot) =
  Format.fprintf fmt
    "mallocs=%d frees=%d live=%dB peak_live=%dB held=%dB peak_held=%dB frag=%.2f maps=%d unmaps=%d to_glob=%d \
     from_glob=%d remote_frees=%d"
    s.mallocs s.frees s.live_bytes s.peak_live_bytes s.held_bytes s.peak_held_bytes (fragmentation s) s.os_maps
    s.os_unmaps s.sb_to_global s.sb_from_global s.remote_frees;
  if s.decommits + s.recommits > 0 then
    Format.fprintf fmt " resident=%dB peak_resident=%dB decommits=%d recommits=%d" s.resident_bytes
      s.peak_resident_bytes s.decommits s.recommits;
  if s.cache_hits + s.cache_fills + s.remote_enqueues > 0 then
    Format.fprintf fmt " cache_hits=%d fills=%d flushes=%d enq=%d drained=%d fwd=%d" s.cache_hits s.cache_fills
      s.cache_flushes s.remote_enqueues s.remote_drains s.remote_forwards;
  if s.cas_retries > 0 then begin
    Format.fprintf fmt " cas_retries=%d" s.cas_retries;
    List.iter
      (fun (label, c) -> if c > 0 then Format.fprintf fmt "[%s=%d]" label c)
      s.cas_retries_by
  end;
  if s.large_maps + s.large_cache_hits > 0 then
    Format.fprintf fmt " large_maps=%d large_cache_hits=%d" s.large_maps s.large_cache_hits;
  if s.deferred_enqueues + s.deferred_reclaims > 0 then
    Format.fprintf fmt " deferred_enq=%d deferred_reclaims=%d" s.deferred_enqueues s.deferred_reclaims;
  if s.orphan_adoptions > 0 then Format.fprintf fmt " orphan_adoptions=%d" s.orphan_adoptions;
  if s.global_pushes + s.global_pops > 0 then
    Format.fprintf fmt " global_pushes=%d global_pops=%d global_busy_misses=%d" s.global_pushes s.global_pops
      s.global_busy_misses
