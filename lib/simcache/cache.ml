type proc = int

type outcome = Hit | Cold_miss | Coherence_miss

type summary = {
  hits : int;
  cold_misses : int;
  coherence_misses : int;
  invalidations_sent : int;
  cross_node_events : int;
  cross_socket_events : int;
}

type proc_stats = {
  p_hits : int;
  p_cold_misses : int;
  p_coherence_misses : int;
  p_invalidations_sent : int;
  p_invalidations_received : int;
}

(* Directory entry: which processors hold the line, and whether one of them
   holds it exclusively (dirty). [mask] is a processor set (multi-word bit
   set, so machines wider than 62 processors work). *)
type line_state = { mask : Procset.t; mutable exclusive : bool }

type counters = {
  mutable hits : int;
  mutable cold : int;
  mutable coher : int;
  mutable inval_sent : int;
  mutable inval_recv : int;
}

type t = {
  nprocs : int;
  nodes : int array; (* processor -> NUMA node, validated at creation *)
  sockets : int array; (* processor -> socket, validated at creation *)
  directory : (int, line_state) Hashtbl.t; (* line index -> state *)
  counters : counters array;
  mutable cross_node_total : int;
  mutable cross_socket_total : int;
}

let max_procs = 1024

let line_size = 64

let line_shift = 6

(* Materialise and validate a processor -> domain-id map. Out-of-range or
   non-contiguous ids would silently miscount [cross_node_events] (a
   processor mapped to a node nobody else can reach makes every event
   "remote"), so both are rejected loudly. *)
let validated_domain_map ~what ~nprocs f =
  let a = Array.init nprocs f in
  Array.iteri
    (fun p d ->
      if d < 0 || d >= nprocs then
        invalid_arg
          (Printf.sprintf "Cache.create: %s maps processor %d to id %d, outside [0, %d)" what p d
             nprocs))
    a;
  let max_id = Array.fold_left max 0 a in
  let seen = Array.make (max_id + 1) false in
  Array.iter (fun d -> seen.(d) <- true) a;
  Array.iteri
    (fun d used ->
      if not used then
        invalid_arg
          (Printf.sprintf "Cache.create: %s ids are non-contiguous: id %d appears but %d is unused"
             what max_id d))
    seen;
  a

let create ?(node_of = fun _ -> 0) ?(socket_of = fun _ -> 0) ~nprocs () =
  if nprocs < 1 || nprocs > max_procs then
    invalid_arg (Printf.sprintf "Cache.create: nprocs must be in [1, %d]" max_procs);
  {
    nprocs;
    nodes = validated_domain_map ~what:"node_of" ~nprocs node_of;
    sockets = validated_domain_map ~what:"socket_of" ~nprocs socket_of;
    directory = Hashtbl.create 4096;
    counters = Array.init nprocs (fun _ -> { hits = 0; cold = 0; coher = 0; inval_sent = 0; inval_recv = 0 });
    cross_node_total = 0;
    cross_socket_total = 0;
  }

let nprocs t = t.nprocs

let node_of t p = t.nodes.(p)

let socket_of t p = t.sockets.(p)

let line_of_addr addr = addr lsr line_shift

let credit_invalidations t p remote =
  let n = Procset.count remote in
  if n > 0 then begin
    t.counters.(p).inval_sent <- t.counters.(p).inval_sent + n;
    Procset.iter (fun q -> t.counters.(q).inval_recv <- t.counters.(q).inval_recv + 1) remote
  end;
  n

let state_of t line =
  match Hashtbl.find_opt t.directory line with
  | Some s -> s
  | None ->
    let s = { mask = Procset.make ~width:t.nprocs; exclusive = false } in
    Hashtbl.replace t.directory line s;
    s

(* Coherence events whose peer lives on another domain (node or socket).
   For an invalidating write, each remote copy is an event; for a served
   miss, one event if any current holder is remote. *)
let cross_of_mask domains p mask =
  let my = domains.(p) in
  Procset.fold (fun q n -> if domains.(q) <> my then n + 1 else n) mask 0

let access_line t p line ~is_write =
  let s = state_of t line in
  let holds = Procset.mem s.mask p in
  let nremote = Procset.count_excluding s.mask p in
  if is_write then
    if holds && nremote = 0 then begin
      (* Already sole holder: silent upgrade to exclusive. *)
      s.exclusive <- true;
      t.counters.(p).hits <- t.counters.(p).hits + 1;
      (Hit, 0)
    end
    else if holds then begin
      (* Upgrade: kill the other copies but the data is local. *)
      Procset.remove s.mask p;
      let n = credit_invalidations t p s.mask in
      Procset.assign_singleton s.mask p;
      s.exclusive <- true;
      t.counters.(p).hits <- t.counters.(p).hits + 1;
      (Hit, n)
    end
    else if nremote > 0 then begin
      let n = credit_invalidations t p s.mask in
      Procset.assign_singleton s.mask p;
      s.exclusive <- true;
      t.counters.(p).coher <- t.counters.(p).coher + 1;
      (Coherence_miss, n)
    end
    else begin
      Procset.assign_singleton s.mask p;
      s.exclusive <- true;
      t.counters.(p).cold <- t.counters.(p).cold + 1;
      (Cold_miss, 0)
    end
  else if holds then begin
    t.counters.(p).hits <- t.counters.(p).hits + 1;
    (Hit, 0)
  end
  else if nremote > 0 then begin
    (* Served cache-to-cache; an exclusive holder is downgraded to shared
       (no invalidation: the remote copy survives). *)
    Procset.add s.mask p;
    s.exclusive <- false;
    t.counters.(p).coher <- t.counters.(p).coher + 1;
    (Coherence_miss, 0)
  end
  else begin
    Procset.assign_singleton s.mask p;
    s.exclusive <- false;
    t.counters.(p).cold <- t.counters.(p).cold + 1;
    (Cold_miss, 0)
  end

let access t p ~addr ~len ~is_write =
  if len <= 0 then invalid_arg "Cache.access: len must be positive";
  if p < 0 || p >= t.nprocs then invalid_arg "Cache.access: bad processor id";
  let acc =
    ref
      {
        hits = 0;
        cold_misses = 0;
        coherence_misses = 0;
        invalidations_sent = 0;
        cross_node_events = 0;
        cross_socket_events = 0;
      }
  in
  let first = line_of_addr addr and last = line_of_addr (addr + len - 1) in
  for line = first to last do
    (* Snapshot the holder set before the transition to attribute
       cross-node traffic. *)
    let pre_mask =
      match Hashtbl.find_opt t.directory line with
      | Some s ->
        let m = Procset.copy s.mask in
        Procset.remove m p;
        m
      | None -> Procset.make ~width:t.nprocs
    in
    let outcome, invals = access_line t p line ~is_write in
    let cross_counts domains =
      if is_write && invals > 0 then cross_of_mask domains p pre_mask
      else if outcome = Coherence_miss then min 1 (cross_of_mask domains p pre_mask)
      else 0
    in
    let cross = cross_counts t.nodes in
    let cross_sock = cross_counts t.sockets in
    t.cross_node_total <- t.cross_node_total + cross;
    t.cross_socket_total <- t.cross_socket_total + cross_sock;
    let a = !acc in
    acc :=
      {
        hits = (a.hits + if outcome = Hit then 1 else 0);
        cold_misses = (a.cold_misses + if outcome = Cold_miss then 1 else 0);
        coherence_misses = (a.coherence_misses + if outcome = Coherence_miss then 1 else 0);
        invalidations_sent = a.invalidations_sent + invals;
        cross_node_events = a.cross_node_events + cross;
        cross_socket_events = a.cross_socket_events + cross_sock;
      }
  done;
  !acc

let read t p ~addr ~len = access t p ~addr ~len ~is_write:false

let write t p ~addr ~len = access t p ~addr ~len ~is_write:true

let stats t p =
  let c = t.counters.(p) in
  {
    p_hits = c.hits;
    p_cold_misses = c.cold;
    p_coherence_misses = c.coher;
    p_invalidations_sent = c.inval_sent;
    p_invalidations_received = c.inval_recv;
  }

let total_cross_node_events t = t.cross_node_total

let total_cross_socket_events t = t.cross_socket_total

let total_invalidations t = Array.fold_left (fun acc c -> acc + c.inval_recv) 0 t.counters

let total_coherence_misses t = Array.fold_left (fun acc c -> acc + c.coher) 0 t.counters

let sharers t ~line =
  match Hashtbl.find_opt t.directory line with
  | None -> []
  | Some s -> List.rev (Procset.fold (fun q acc -> q :: acc) s.mask [])

let reset_stats t =
  Array.iter
    (fun c ->
      c.hits <- 0;
      c.cold <- 0;
      c.coher <- 0;
      c.inval_sent <- 0;
      c.inval_recv <- 0)
    t.counters
