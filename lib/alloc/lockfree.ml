(* ABA-tagged Treiber stacks sharing one node pool, over Platform atomics.

   This is the non-blocking substrate under both lock-free extensions:
   each large-cache bucket is a stack alone in a bounded pool, and the
   lock-free global heap's entry stacks (the empties, then a partial
   stack for each class in use) share one growing pool. Push and
   pop complete with CAS only, no lock, so a thread preempted (or
   crashed, on real hardware) mid-way never blocks the others.

   Structure: a table of nodes. Each node holds one payload (host state,
   owned exclusively by whichever thread currently owns the node) and one
   atomic link word on its own cache line. The pool's free lists and every
   stack are Treiber stacks threaded through the shared link words; push
   moves a node from a free list to its stack, pop the reverse. A
   bounded pool's table is fixed, so its population is bounded with no
   separate count to maintain atomically; a growing pool hands out fresh
   nodes when its free lists are empty (see [take_fresh]).

   Per-processor free lists. A growing pool serves every stack of the
   global index, so one shared free list would put every push and pop of
   every class on one word. It keeps, beside the shared list, one free
   list per processor ([Platform.self_proc]), built on first use, that
   holds at most [own_cap] nodes: a pop returns its node to the caller's
   list, or to the shared list once the caller's list is full; a push
   takes a node from the caller's list, then the shared list, then a
   fresh id. A processor whose pushes and pops balance thus never touches
   the shared word, and the table stays within the live entries plus
   [own_cap] per processor plus one in-flight node per thread in the
   middle of a push or pop: a fresh id is handed out only when the
   caller found both its own and the shared list empty.

   ABA: each head word packs [((idx + 1) * count_space + n) * tag_space
   + tag] (idx = -1 is the empty stack) and every successful CAS
   increments the tag, so a CAS whose top node was popped and re-pushed
   in between fails instead of installing a stale link — the classic
   Treiber pop hazard. [n] is a per-processor list's length, kept in the
   head so that testing the cap costs only the head load (0 on every
   other stack). The index takes the unbounded high bits because a
   growing table has no size to pack against; 2^20 tag values before
   wrap-around is far beyond any explorer bound. The [aba_tag:false] knob
   freezes the tag at zero, planting exactly that bug for the schedule
   explorer to find.

   The payload write is host state: it happens while the node is private
   (after winning it from one stack, before the CAS publishing it on
   another), and the publishing CAS is the linearization point, so no
   torn payload is ever observable. Link loads/stores are platform
   atomics — schedule-visible steps on distinct cache lines — which is
   what lets lib/check explore the protocol exhaustively and see real
   conflicts. *)

type 'a node = {
  mutable payload : 'a option; (* written while the node is privately owned *)
  link : Platform.atomic_int; (* index of the node below, -1 = bottom *)
}

type 'a pool = {
  pf : Platform.t;
  name : string;
  aba_tag : bool;
  on_retry : unit -> unit;
  grows : bool;
  (* Append-only node table, published via host atomics, grown under [mu]
     (a host mutex: zero simulated cost, construction discipline only). *)
  nodes : 'a node array Atomic.t;
  handed : int Atomic.t; (* node ids below this have been handed out at least once *)
  mu : Mutex.t;
  free : Platform.atomic_int; (* the shared free list *)
  (* A growing pool's per-processor free lists, by processor, each built
     under [mu] on its processor's first use and published through its
     host atomic; [||] in a bounded pool. *)
  own : Platform.atomic_int option Atomic.t array;
  stacks : 'a t array Atomic.t; (* in creation order; appended to under [mu] *)
  in_flight : int Atomic.t; (* operations started and not yet finished *)
}

and 'a t = {
  pool : 'a pool;
  head : Platform.atomic_int;
  (* Host counters: no simulated cost, exact at quiescence. *)
  len : int Atomic.t;
  pushes : int Atomic.t;
}

let tag_space = 1 lsl 20

let own_cap = 8

let count_space = 16 (* > own_cap *)

let pack ?(n = 0) ~tag idx = ((((idx + 1) * count_space) + n) * tag_space) + tag

(* (tag, idx, n) *)
let unpack packed =
  let above = packed / tag_space in
  (packed mod tag_space, (above / count_space) - 1, above mod count_space)

let empty = pack ~tag:0 (-1)

let next_tag p tag = if p.aba_tag then (tag + 1) land (tag_space - 1) else 0

(* A bounded pool's table is created whole, every node on the free list
   (0 on top, linked upward); a growing one starts empty. Line addresses
   follow creation order: the table, then the free word. *)
let make_pool pf ~name ~cap ~grows ~aba_tag ~on_retry =
  let new_atomic suffix init = pf.Platform.new_atomic (name ^ "." ^ suffix) init in
  let nodes =
    Array.init cap (fun i ->
        { payload = None; link = new_atomic (Printf.sprintf "next%d" i) (if i = cap - 1 then -1 else i + 1) })
  in
  let free = new_atomic "free" (if cap = 0 then empty else pack ~tag:0 0) in
  {
    pf;
    name;
    aba_tag;
    on_retry;
    grows;
    nodes = Atomic.make nodes;
    handed = Atomic.make cap;
    mu = Mutex.create ();
    free;
    own = (if grows then Array.init pf.Platform.nprocs (fun _ -> Atomic.make None) else [||]);
    stacks = Atomic.make [||];
    in_flight = Atomic.make 0;
  }

let new_stack pool head = { pool; head; len = Atomic.make 0; pushes = Atomic.make 0 }

let pool pf ~name ?(aba_tag = true) ?(on_retry = fun () -> ()) () =
  make_pool pf ~name ~cap:0 ~grows:true ~aba_tag ~on_retry

(* Each head takes the next line, wherever the run has got to; the table
   is republished before the stacks are returned. *)
let add_stacks p suffixes =
  Mutex.lock p.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.mu)
    (fun () ->
      let added =
        Array.map (fun suffix -> new_stack p (p.pf.Platform.new_atomic (p.name ^ "." ^ suffix) empty)) suffixes
      in
      Atomic.set p.stacks (Array.append (Atomic.get p.stacks) added);
      added)

let create pf ~name ~cap ?(aba_tag = true) ?(on_retry = fun () -> ()) () =
  if cap < 1 then invalid_arg "Lockfree.create: cap must be >= 1";
  let p = make_pool pf ~name ~cap ~grows:false ~aba_tag ~on_retry in
  let s = new_stack p (pf.Platform.new_atomic (name ^ ".head") empty) in
  Atomic.set p.stacks [| s |];
  s

let node_at p i = (Atomic.get p.nodes).(i)

(* The costed protocol goes through the atomics' schedule-visible
   load/store/cas; the quiescent one through charge-free peek/poke, where
   the CAS is a poke that cannot fail (nothing runs concurrently).
   Quiescent callers run outside any simulated thread, where there is no
   calling processor, so only the costed protocol uses the per-processor
   lists ([local]). *)
type access = {
  load : Platform.atomic_int -> int;
  store : Platform.atomic_int -> int -> unit;
  cas : Platform.atomic_int -> expected:int -> desired:int -> bool;
  local : bool;
}

let costed =
  {
    load = (fun a -> a.Platform.load ());
    store = (fun a v -> a.Platform.store v);
    cas = (fun a ~expected ~desired -> a.Platform.cas ~expected ~desired);
    local = true;
  }

let quiescent =
  {
    load = (fun a -> a.Platform.peek ());
    store = (fun a v -> a.Platform.poke v);
    cas =
      (fun a ~expected:_ ~desired ->
        a.Platform.poke desired;
        true);
    local = false;
  }

(* Unlink the top node of the stack headed by [head]. The window between
   the link load and the CAS is where ABA strikes: the tag makes the CAS
   fail whenever the head moved since [packed] was read, even if the same
   node index is back on top with a different link. A non-empty
   per-processor list has n >= 1 and loses one; every other head keeps
   n = 0. *)
let rec pop_node ac p head =
  let packed = ac.load head in
  let tag, idx, n = unpack packed in
  if idx < 0 then None
  else begin
    let below = ac.load (node_at p idx).link in
    if ac.cas head ~expected:packed ~desired:(pack ~n:(max 0 (n - 1)) ~tag:(next_tag p tag) below) then Some idx
    else begin
      p.on_retry ();
      pop_node ac p head
    end
  end

(* Link the privately-owned node [idx] on top of the stack headed by
   [head]; with [cap], only while the head counts fewer than [cap] nodes
   ([false] and nothing written otherwise), counting the new one. Storing
   the link before the CAS is safe — the node is invisible until the CAS
   publishes it — and plain Treiber push never dereferences stale state,
   so it needs no window re-validation beyond the CAS itself. *)
let rec push_node ?cap ac p head idx =
  let packed = ac.load head in
  let tag, top, n = unpack packed in
  match cap with
  | Some cap when n >= cap -> false
  | _ ->
    ac.store (node_at p idx).link top;
    let n = if cap = None then n else n + 1 in
    if ac.cas head ~expected:packed ~desired:(pack ~n ~tag:(next_tag p tag) idx) then true
    else begin
      p.on_retry ();
      push_node ?cap ac p head idx
    end

(* Hand out a never-used node id, doubling the table when all existing
   ids have been handed out. Host-side construction discipline (the
   [mu] mutex plus host atomics, zero simulated cost): node allocation
   is table management, not part of the simulated protocol — only the
   free lists' Treiber ops are schedule-visible. The array is
   republished before the new id is returned, so a racing reader's
   [node_at] never misses. Fresh ids MUST NOT be seeded through the
   simulated free lists: a thundering herd of takers each observing a
   transiently-empty free list would serialize behind ever-doubling
   seeding loops whose costed pushes starve the other takers into
   growing again — table size and simulated time then blow up together
   (observed: 26,000x cycle inflation on the 32P churn workload).
   Growing only when [handed] reaches the table edge ties the table
   to the live-entry count, which the herd cannot inflate: each caller
   takes exactly one id. *)
let take_fresh p =
  Mutex.lock p.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.mu)
    (fun () ->
      let i = Atomic.get p.handed in
      let old = Atomic.get p.nodes in
      let n = Array.length old in
      if i >= n then begin
        let mk j =
          { payload = None; link = p.pf.Platform.new_atomic (Printf.sprintf "%s.n%d" p.name (n + j)) (-1) }
        in
        Atomic.set p.nodes (Array.append old (Array.init (max 8 n) mk))
      end;
      Atomic.set p.handed (i + 1);
      i)

(* The calling processor's free list, built on its first use: a fresh
   atomic "<name>.free.p<proc>" that takes the next line, wherever the
   run has got to, as [add_stacks]'s heads do. *)
let own_list p =
  let proc = p.pf.Platform.self_proc () in
  let cell = p.own.(proc) in
  match Atomic.get cell with
  | Some a -> a
  | None ->
    Mutex.lock p.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock p.mu)
      (fun () ->
        match Atomic.get cell with
        | Some a -> a
        | None ->
          let a = p.pf.Platform.new_atomic (Printf.sprintf "%s.free.p%d" p.name proc) empty in
          Atomic.set cell (Some a);
          a)

let uses_own ac p = ac.local && p.grows

(* A node for a push: off the caller's list, else the shared list, else
   a fresh id from a growing pool, or nothing from a bounded one (full).
   A transiently-empty free list (a racing popper took the last node)
   costs a growing pool at most one spare id — bounded by P per
   exhaustion, not a retry loop. *)
let take ac p =
  let mine = if uses_own ac p then pop_node ac p (own_list p) else None in
  match mine with
  | Some i -> Some i
  | None -> (
    match pop_node ac p p.free with
    | Some i -> Some i
    | None -> if p.grows then Some (take_fresh p) else None)

(* A popped node goes back to the caller's list while it holds fewer
   than [own_cap], else to the shared list. *)
let give ac p i =
  if not (uses_own ac p && push_node ~cap:own_cap ac p (own_list p) i) then ignore (push_node ac p p.free i)

let push_with ac s v =
  let p = s.pool in
  match take ac p with
  | None -> false
  | Some i ->
    (node_at p i).payload <- Some v;
    ignore (push_node ac p s.head i);
    Atomic.incr s.len;
    Atomic.incr s.pushes;
    true

let pop_with ac s =
  let p = s.pool in
  match pop_node ac p s.head with
  | None -> None
  | Some i ->
    let node = node_at p i in
    let v =
      match node.payload with
      | Some v -> v
      | None -> failwith "Lockfree.pop: live slot without a payload (corrupt stack)"
    in
    node.payload <- None;
    give ac p i;
    Atomic.decr s.len;
    Some v

(* Costed operations count as in flight for the walk's quiescence check. *)
let tracked p f =
  Atomic.incr p.in_flight;
  let r = f () in
  Atomic.decr p.in_flight;
  r

let push s v = tracked s.pool (fun () -> push_with costed s v)

let pop s = tracked s.pool (fun () -> pop_with costed s)

let q_push s v = push_with quiescent s v

let name s = s.head.Platform.atomic_name

let length s = Atomic.get s.len

let pushes s = Atomic.get s.pushes

(* Quiescent-only walk: the shared free list, the per-processor lists
   built so far, then every stack in creation order, top first, with one
   seen-set across all of them. A node reached twice (a cycle, or the
   stale splice of a lost ABA tag), a payload-less live node, a
   handed-out node reachable from no head, or a per-processor list longer
   than [own_cap] or than its head's count raises instead of being
   silently iterated past. Uses [peek]: charge-free, callable from
   outside any simulated thread. *)
let walk p f =
  let fail fmt = Printf.ksprintf (fun m -> failwith (Printf.sprintf "Lockfree: %s: %s" p.name m)) fmt in
  if Atomic.get p.in_flight <> 0 then fail "pool not quiescent";
  let handed = Atomic.get p.handed in
  let seen = Array.make (max 1 handed) false in
  let walked = ref 0 in
  (* The number of nodes reachable from [head]. *)
  let go head live =
    let rec from idx len =
      if idx < 0 then len
      else begin
        if idx >= handed then fail "%s references node %d beyond the table" head.Platform.atomic_name idx;
        if seen.(idx) then fail "node %d reachable twice (lost ABA tag?)" idx;
        seen.(idx) <- true;
        incr walked;
        let node = node_at p idx in
        (match live with
         | None -> ()
         | Some s ->
           (match node.payload with
            | Some v -> f s v
            | None -> fail "live node %d without a payload" idx));
        from (node.link.Platform.peek ()) (len + 1)
      end
    in
    let _, top, _ = unpack (head.Platform.peek ()) in
    from top 0
  in
  ignore (go p.free None);
  Array.iter
    (fun cell ->
      Option.iter
        (fun head ->
          let len = go head None and _, _, n = unpack (head.Platform.peek ()) in
          if len > own_cap then fail "%s holds %d nodes, over its cap of %d" head.Platform.atomic_name len own_cap;
          if len <> n then fail "%s holds %d nodes but its head counts %d" head.Platform.atomic_name len n)
        (Atomic.get cell))
    p.own;
  Array.iter (fun s -> ignore (go s.head (Some s))) (Atomic.get p.stacks);
  if !walked <> handed then
    fail "%d of %d handed-out nodes unreachable from any head (stale splice?)" (handed - !walked) handed

let nodes p = Atomic.get p.handed

let live p = Array.fold_left (fun n s -> n + Atomic.get s.len) 0 (Atomic.get p.stacks)

let iter s f = walk s.pool (fun s' v -> if s' == s then f v)
