(* Per-layer cycle ledger, measured from outside the allocator.

   The traced pass wraps the Platform.t the allocator is built on and the
   Alloc_intf.t the workload calls. Around each allocator call and each
   lock, atomic and OS call the allocator makes, it reads the simulated
   clock, which the simulator serves inline with no charge and no yield:
   a traced run is cycle-identical to an untraced one.

   Charges telescope. Each simulated thread remembers the clock at its
   last boundary. At the next boundary the interval since then goes to
   the innermost lock scope the thread holds (to the front end when it
   holds none), and the boundary operation's own duration goes to the
   layer its lock or atomic name belongs to. Reads, writes and work are
   therefore charged to the enclosing scope without being wrapped, and
   the charges of one allocator call sum exactly to its latency. *)

type layer = Frontend | Heap | Remote | Global | Registry | Os | Other

let layers = [ Frontend; Heap; Remote; Global; Registry; Os; Other ]

let index = function
  | Frontend -> 0
  | Heap -> 1
  | Remote -> 2
  | Global -> 3
  | Registry -> 4
  | Os -> 5
  | Other -> 6

(* Lock and atomic names the allocator creates, by prefix. A numbered
   prefix is followed by a heap id: id 0 is the global heap, so its lock
   and its deferred list belong to the global layer. Names no rule covers
   (the large-object path's "large" lock and "hoard.lcache" stacks) land
   in [Other]. *)
type rule = Numbered of layer | Fixed of layer

let rules =
  [
    ("hoard.heap", Numbered Heap);
    ("hoard.rfq", Numbered Remote);
    ("hoard.dfl", Numbered Remote);
    ("hoard.gindex.", Fixed Global);
    ("hoard.shelf.", Fixed Global);
    ("hoard.reservoir.", Fixed Global);
    ("sbreg.s", Fixed Registry);
  ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* The heap id after [prefix] in names such as "hoard.heap3" or
   "hoard.dfl0.head". *)
let heap_id ~prefix s =
  let n = String.length s and start = String.length prefix in
  let stop = ref start in
  while !stop < n && s.[!stop] >= '0' && s.[!stop] <= '9' do
    incr stop
  done;
  if !stop = start || (!stop < n && s.[!stop] <> '.') then None
  else Some (int_of_string (String.sub s start (!stop - start)))

let layer_of_name s =
  let rec go = function
    | [] -> Other
    | (prefix, rule) :: rest when has_prefix ~prefix s ->
      (match rule with
       | Fixed l -> l
       | Numbered l ->
         (match heap_id ~prefix s with
          | Some 0 -> Global
          | Some _ -> l
          | None -> go rest))
    | _ :: rest -> go rest
  in
  go rules

type scope = { s_name : string; s_layer : layer; s_start : int }

type thread = {
  mutable depth : int;  (** allocator calls open on this thread *)
  mutable call_start : int;
  mutable last : int;  (** clock at the thread's last boundary *)
  mutable scopes : scope list;  (** held allocator locks, innermost first *)
}

type t = {
  cycles : int array;  (** per layer *)
  ops : int array;  (** lock acquisitions plus atomic operations, per layer *)
  cas_fails : int array;
  wait : int array;  (** cycles inside lock acquisitions, per layer *)
  mutable os_calls : int;
  mutable api_calls : int;
  mutable api_cycles : int;
  mutable owner_drains : int;
      (** [hoard.rfqN] acquisitions made under [hoard.heapN]: the owner
          draining its own remote-free queue *)
  mutable stray : int;  (** allocator boundary operations outside any allocator call *)
  malloc_lat : Dist.t;
  free_lat : Dist.t;
  decile_calls : int;  (** malloc and free calls the run makes, when known *)
  mutable mf_seen : int;
  first_decile : Dist.t;
  last_decile : Dist.t;
  mutable threads : thread array;
  spans : Perfetto.t option;
  mutable spans_dropped : int;
}

let max_span_events = 200_000

let create ?(decile_calls = 0) ?spans () =
  let per_layer () = Array.make (List.length layers) 0 in
  {
    cycles = per_layer ();
    ops = per_layer ();
    cas_fails = per_layer ();
    wait = per_layer ();
    os_calls = 0;
    api_calls = 0;
    api_cycles = 0;
    owner_drains = 0;
    stray = 0;
    malloc_lat = Dist.create ();
    free_lat = Dist.create ();
    decile_calls;
    mf_seen = 0;
    first_decile = Dist.create ();
    last_decile = Dist.create ();
    threads = [||];
    spans;
    spans_dropped = 0;
  }

let cycles t l = t.cycles.(index l)

let ops t l = t.ops.(index l)

let cas_fails t l = t.cas_fails.(index l)

let wait t l = t.wait.(index l)

let layer_sum t = Array.fold_left ( + ) 0 t.cycles

let thread t tid =
  let n = Array.length t.threads in
  if tid >= n then
    t.threads <-
      Array.init
        (max (2 * n) (tid + 1))
        (fun i -> if i < n then t.threads.(i) else { depth = 0; call_start = 0; last = 0; scopes = [] });
  t.threads.(tid)

let innermost th =
  match th.scopes with
  | s :: _ -> s.s_layer
  | [] -> Frontend

let charge t l n = t.cycles.(index l) <- t.cycles.(index l) + n

let span t ~tid ~name ~cat ~ts ~dur =
  match t.spans with
  | Some p when Perfetto.event_count p < max_span_events -> Perfetto.span p ~name ~cat ~ts ~dur ~pid:0 ~tid ()
  | Some _ -> t.spans_dropped <- t.spans_dropped + 1
  | None -> ()

(* One lock, atomic or OS operation of the allocator. *)
let boundary t (pf : Platform.t) layer f ~on_done =
  let tid = pf.self_tid () in
  let th = thread t tid in
  if th.depth = 0 then begin
    t.stray <- t.stray + 1;
    f ()
  end
  else begin
    let t0 = pf.now () in
    charge t (innermost th) (t0 - th.last);
    let r = f () in
    let t1 = pf.now () in
    charge t layer (t1 - t0);
    th.last <- t1;
    on_done ~tid th ~t0 ~t1 r;
    r
  end

let wrap_lock t pf (l : Platform.lock) : Platform.lock =
  let layer = layer_of_name l.lock_name in
  let owner_heap =
    if not (has_prefix ~prefix:"hoard.rfq" l.lock_name) then None
    else Option.map (Printf.sprintf "hoard.heap%d") (heap_id ~prefix:"hoard.rfq" l.lock_name)
  in
  let acquire () =
    boundary t pf layer l.acquire ~on_done:(fun ~tid:_ th ~t0 ~t1 () ->
        let i = index layer in
        t.ops.(i) <- t.ops.(i) + 1;
        t.wait.(i) <- t.wait.(i) + (t1 - t0);
        (match owner_heap with
         | Some h when List.exists (fun s -> s.s_name = h) th.scopes -> t.owner_drains <- t.owner_drains + 1
         | _ -> ());
        th.scopes <- { s_name = l.lock_name; s_layer = layer; s_start = t0 } :: th.scopes)
  in
  let release () =
    boundary t pf layer l.release ~on_done:(fun ~tid th ~t0:_ ~t1 () ->
        match List.partition (fun s -> s.s_name = l.lock_name) th.scopes with
        | s :: _, rest ->
          th.scopes <- rest;
          span t ~tid ~name:l.lock_name ~cat:"lock" ~ts:s.s_start ~dur:(t1 - s.s_start)
        | [], _ -> ())
  in
  { l with acquire; release }

let wrap_atomic t pf (x : Platform.atomic_int) : Platform.atomic_int =
  let layer = layer_of_name x.atomic_name in
  let run op f ~failed =
    boundary t pf layer f ~on_done:(fun ~tid _ ~t0 ~t1 r ->
        let i = index layer in
        t.ops.(i) <- t.ops.(i) + 1;
        if failed r then t.cas_fails.(i) <- t.cas_fails.(i) + 1;
        span t ~tid ~name:(x.atomic_name ^ "." ^ op) ~cat:"atomic" ~ts:t0 ~dur:(t1 - t0))
  in
  let never _ = false in
  {
    x with
    load = (fun () -> run "load" x.load ~failed:never);
    store = (fun v -> run "store" (fun () -> x.store v) ~failed:never);
    cas = (fun ~expected ~desired -> run "cas" (fun () -> x.cas ~expected ~desired) ~failed:not);
    faa = (fun n -> run "faa" (fun () -> x.faa n) ~failed:never);
  }

let os_call t pf opname f =
  boundary t pf Os f ~on_done:(fun ~tid _ ~t0 ~t1 _ ->
      t.os_calls <- t.os_calls + 1;
      span t ~tid ~name:opname ~cat:"os" ~ts:t0 ~dur:(t1 - t0))

let wrap_platform t (pf : Platform.t) : Platform.t =
  {
    pf with
    new_lock = (fun n -> wrap_lock t pf (pf.new_lock n));
    new_atomic = (fun n init -> wrap_atomic t pf (pf.new_atomic n init));
    page_map = (fun ~bytes ~align ~owner -> os_call t pf "page_map" (fun () -> pf.page_map ~bytes ~align ~owner));
    page_unmap = (fun ~addr -> os_call t pf "page_unmap" (fun () -> pf.page_unmap ~addr));
    page_decommit = (fun ~addr -> os_call t pf "page_decommit" (fun () -> pf.page_decommit ~addr));
    page_commit = (fun ~addr -> os_call t pf "page_commit" (fun () -> pf.page_commit ~addr));
  }

type kind = Malloc | Free | Other_call

let record_decile t lat =
  let i = t.mf_seen and tenth = t.decile_calls / 10 in
  t.mf_seen <- i + 1;
  if i < tenth then Dist.add t.first_decile lat
  else if i >= t.decile_calls - tenth then Dist.add t.last_decile lat

let call t (pf : Platform.t) opname kind f =
  let tid = pf.self_tid () in
  let th = thread t tid in
  th.depth <- th.depth + 1;
  if th.depth = 1 then begin
    let now = pf.now () in
    th.call_start <- now;
    th.last <- now
  end;
  let r = f () in
  if th.depth = 1 then begin
    let t1 = pf.now () in
    charge t (innermost th) (t1 - th.last);
    th.last <- t1;
    let lat = t1 - th.call_start in
    t.api_calls <- t.api_calls + 1;
    t.api_cycles <- t.api_cycles + lat;
    (match kind with
     | Malloc ->
       Dist.add t.malloc_lat lat;
       record_decile t lat
     | Free ->
       Dist.add t.free_lat lat;
       record_decile t lat
     | Other_call -> ());
    span t ~tid ~name:opname ~cat:"api" ~ts:th.call_start ~dur:lat
  end;
  th.depth <- th.depth - 1;
  r

let wrap_alloc t pf (a : Alloc_intf.t) : Alloc_intf.t =
  let c opname ?(kind = Other_call) f = call t pf opname kind f in
  {
    a with
    malloc = (fun n -> c "malloc" ~kind:Malloc (fun () -> a.malloc n));
    free = (fun addr -> c "free" ~kind:Free (fun () -> a.free addr));
    usable_size = (fun addr -> c "usable_size" (fun () -> a.usable_size addr));
    malloc_batch = (fun n size -> c "malloc_batch" (fun () -> a.malloc_batch n size));
    free_batch = (fun addrs -> c "free_batch" (fun () -> a.free_batch addrs));
    flush = (fun () -> c "flush" a.flush);
    thread_exit = (fun () -> c "thread_exit" a.thread_exit);
    realloc = (fun ~addr ~size -> c "realloc" (fun () -> a.realloc ~addr ~size));
    calloc = (fun ~count ~size -> c "calloc" (fun () -> a.calloc ~count ~size));
    aligned_alloc = (fun ~align ~size -> c "aligned_alloc" (fun () -> a.aligned_alloc ~align ~size));
  }

(* The untraced passes' request timer: malloc and free latency only, with
   no platform wrapper, for the closed-loop workloads' request metrics. *)
let time_calls (pf : Platform.t) dist (a : Alloc_intf.t) : Alloc_intf.t =
  let timed f =
    let t0 = pf.now () in
    let r = f () in
    Dist.add dist (pf.now () - t0);
    r
  in
  { a with malloc = (fun n -> timed (fun () -> a.malloc n)); free = (fun addr -> timed (fun () -> a.free addr)) }
