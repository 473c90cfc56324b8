(* The lock-free global heap: a per-(size-class, fullness-group) index of
   the superblocks heap 0 holds, built so that every transfer to or from
   the global heap — and every free into a global superblock — completes
   with CAS only, never acquiring the heap-0 lock.

   Structure. Each member superblock owns one SLOT: a record carrying the
   superblock and one atomic WORD encoding (state, fullness bin). Slots
   are allocated once per superblock (the id is cached in
   [Superblock.gslot]) and live forever in an append-only table, so a
   stale reader can always dereference a slot id it popped. Membership is
   advertised through ABA-tagged Treiber stacks of ENTRY NODES, one stack
   per (class, bin) plus a class-agnostic stack of empties; nodes come
   from a lock-free free list and are recycled on pop.

   The word is the ground truth; the stacks are a lazily-maintained index:

     Absent        not a member (owned by some heap, or in transit)
     Idle b        member, quiescent, fullness bin b
     Busy b        member, one reclaimer is freeing a block into it

   Entries may be stale — a superblock that moved bins (or left the index
   and came back) leaves old entries behind. The maintained invariant is
   one-sided: at quiescence, every Idle(b) member has at least one entry
   in stack b (publish pushes one; a bin-changing free pushes one to the
   new bin; an acquirer that pops an entry it cannot claim pushes it
   back). Pops simply discard entries whose word no longer matches, so
   staleness costs retries, never correctness.

   Claiming (acquire / take_empty) is a CAS Idle(b) -> Absent on the word
   — the linearization point of a global -> heap transfer. After it the
   superblock's content is private to the claimer: a concurrent free
   finding the word Absent bounces back to the caller for re-routing
   instead of touching the superblock. Freeing a run of blocks into a
   member runs the Busy protocol once for the whole run: CAS Idle(b) ->
   Busy(b), mutate, store Idle(b'), republish. Every retry loop here is
   bounded by other threads' progress (a failed CAS means the word or a
   head moved), which is what keeps the schedule explorer's state space
   finite.

   Fullness only decreases while a superblock is a member (allocation
   happens only after a claim), so a stale entry always points at an
   emptier-or-equal superblock — misplacement makes acquire's
   fullest-first scan slightly pessimistic, never unsound.

   Mutants: [aba_tag:false] freezes every stack tag ("global-no-aba") —
   a pop over a concurrently recycled head splices a stale tail and
   strands nodes that [check]'s exhaustive walk then finds unreachable.
   [skip_revalidate:true] ("global-skip-revalidate") turns the claim CAS
   into a plain store, stomping a concurrent reclaimer's Busy. *)

type slot = {
  sb : Superblock.t;
  word : Platform.atomic_int;
}

type node = {
  mutable n_slot : int; (* payload; written while the node is privately owned *)
  n_next : Platform.atomic_int;
}

type t = {
  pf : Platform.t;
  name : string;
  ngroups : int;
  nclasses : int;
  aba_tag : bool;
  skip_revalidate : bool;
  on_retry : unit -> unit;
  (* Append-only tables, published via host atomics, grown under [mu]
     (a host mutex: zero simulated cost, construction-discipline only). *)
  slots : slot array Atomic.t;
  n_slots : int Atomic.t;
  nodes : node array Atomic.t;
  n_nodes : int Atomic.t;
  next_fresh : int Atomic.t; (* node ids below this have been handed out at least once *)
  mu : Mutex.t;
  free_head : Platform.atomic_int; (* recycled entry nodes *)
  heads : Platform.atomic_int array array; (* heads.(class).(bin), bin <= ngroups (full) *)
  empties_head : Platform.atomic_int; (* class-agnostic: any empty is reformattable *)
  (* Gauges and counters: host atomics, exact at quiescence. *)
  members : int Atomic.t;
  empties : int Atomic.t;
  u_bytes : int Atomic.t; (* usable live bytes inside member superblocks *)
  pushes : int Atomic.t;
  pops : int Atomic.t;
  revalidates : int Atomic.t;
  retries : int Atomic.t;
}

(* ---- word encoding: state * nbins + bin ---- *)

let nbins t = t.ngroups + 2 (* partial bins, full, empties *)

let full_bin t = t.ngroups

let empties_bin t = t.ngroups + 1

let word_absent = 0

let word_idle t b = nbins t + b

let word_busy t b = (2 * nbins t) + b

type state =
  | Absent
  | Idle of int
  | Busy of int

let decode t w =
  match w / nbins t with
  | 0 -> Absent
  | 1 -> Idle (w mod nbins t)
  | 2 -> Busy (w mod nbins t)
  | _ -> failwith "Global_index: corrupt state word"

(* ---- head encoding: (idx + 1) * tag_space + tag ----
   Unlike [Lockfree]'s bounded pool, the node table grows, so the tag
   occupies a fixed low field and the index the (unbounded) high bits.
   2^20 tag values before wrap-around is far beyond any explorer bound;
   the mutant freezes the tag at zero. *)

let tag_space = 1 lsl 20

let pack ~tag ~idx = ((idx + 1) * tag_space) + tag

let unpack packed = (packed mod tag_space, (packed / tag_space) - 1)

let next_tag t tag = if t.aba_tag then (tag + 1) land (tag_space - 1) else 0

let create pf ~name ~nclasses ~ngroups ?(aba_tag = true) ?(skip_revalidate = false)
    ?(on_retry = fun () -> ()) () =
  if ngroups < 1 then invalid_arg "Global_index.create: ngroups must be >= 1";
  if nclasses < 1 then invalid_arg "Global_index.create: nclasses must be >= 1";
  let new_atomic suffix init = pf.Platform.new_atomic (name ^ "." ^ suffix) init in
  {
    pf;
    name;
    ngroups;
    nclasses;
    aba_tag;
    skip_revalidate;
    on_retry;
    slots = Atomic.make [||];
    n_slots = Atomic.make 0;
    nodes = Atomic.make [||];
    n_nodes = Atomic.make 0;
    next_fresh = Atomic.make 0;
    mu = Mutex.create ();
    free_head = new_atomic "free" (pack ~tag:0 ~idx:(-1));
    heads =
      Array.init nclasses (fun c ->
          Array.init (ngroups + 1) (fun b -> new_atomic (Printf.sprintf "c%db%d" c b) (pack ~tag:0 ~idx:(-1))));
    empties_head = new_atomic "empties" (pack ~tag:0 ~idx:(-1));
    members = Atomic.make 0;
    empties = Atomic.make 0;
    u_bytes = Atomic.make 0;
    pushes = Atomic.make 0;
    pops = Atomic.make 0;
    revalidates = Atomic.make 0;
    retries = Atomic.make 0;
  }

let retry t =
  Atomic.incr t.retries;
  t.on_retry ()

let slot_at t i = (Atomic.get t.slots).(i)

let node_at t i = (Atomic.get t.nodes).(i)

(* ---- Treiber stack primitives over the node table ---- *)

let rec pop_node t head =
  let packed = head.Platform.load () in
  let tag, idx = unpack packed in
  if idx < 0 then None
  else begin
    let below = (node_at t idx).n_next.Platform.load () in
    if head.Platform.cas ~expected:packed ~desired:(pack ~tag:(next_tag t tag) ~idx:below) then Some idx
    else begin
      retry t;
      pop_node t head
    end
  end

let rec push_node t head idx =
  let packed = head.Platform.load () in
  let tag, top = unpack packed in
  (node_at t idx).n_next.Platform.store top;
  if head.Platform.cas ~expected:packed ~desired:(pack ~tag:(next_tag t tag) ~idx) then ()
  else begin
    retry t;
    push_node t head idx
  end

(* Allocate a never-used node id, doubling the table when all existing
   ids have been handed out. Host-side construction discipline (the
   [mu] mutex plus host atomics, zero simulated cost): node allocation
   is table management, not part of the simulated protocol — only the
   free list's Treiber ops are schedule-visible. The array is
   republished before the new id is returned, so a racing reader's
   [node_at] never misses. Fresh ids MUST NOT be seeded through the
   simulated free list: a thundering herd of takers each observing a
   transiently-empty free list would serialize behind ever-doubling
   seeding loops whose costed pushes starve the other takers into
   growing again — table size and simulated time then blow up together
   (observed: 26,000x cycle inflation on the 32P churn workload).
   Growing only when [next_fresh] reaches the table edge ties the table
   to the live-entry count, which the herd cannot inflate: each caller
   takes exactly one id. *)
let take_fresh t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let i = Atomic.get t.next_fresh in
      if i >= Atomic.get t.n_nodes then begin
        let old = Atomic.get t.nodes in
        let n = Array.length old in
        let k = max 8 n in
        let mk j =
          { n_slot = -1; n_next = t.pf.Platform.new_atomic (Printf.sprintf "%s.n%d" t.name (n + j)) (-1) }
        in
        Atomic.set t.nodes (Array.append old (Array.init k mk));
        Atomic.set t.n_nodes (n + k)
      end;
      Atomic.set t.next_fresh (i + 1);
      i)

(* A recycled node off the free list when one is there, a fresh id
   otherwise. A transiently-empty free list (a racing popper took the
   last node) costs at most one spare id — bounded by P per exhaustion,
   not a retry loop. *)
let take_node t =
  match pop_node t t.free_head with
  | Some i -> i
  | None -> take_fresh t

let head_for t ~sclass ~bin = if bin = empties_bin t then t.empties_head else t.heads.(sclass).(bin)

(* Push one membership entry for [slot] onto stack (sclass, bin). *)
let push_entry t ~sclass ~bin slot =
  let i = take_node t in
  (node_at t i).n_slot <- slot;
  push_node t (head_for t ~sclass ~bin) i

(* Pop one entry off a stack; recycles the node and returns the slot id. *)
let pop_entry t head =
  match pop_node t head with
  | None -> None
  | Some i ->
      let s = (node_at t i).n_slot in
      push_node t t.free_head i;
      Some s

(* ---- slot allocation ---- *)

(* Assign a slot to a superblock seen by the index for the first time.
   Runs while the superblock is private to the publisher, so the plain
   [set_gslot] is unracing; the table grows under [mu]. *)
let assign_slot t sb =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let old = Atomic.get t.slots in
      let id = Array.length old in
      let slot = { sb; word = t.pf.Platform.new_atomic (Printf.sprintf "%s.w%d" t.name id) word_absent } in
      Atomic.set t.slots (Array.append old [| slot |]);
      Atomic.set t.n_slots (id + 1);
      Superblock.set_gslot sb id;
      id)

let bin_of t sb =
  Heap_core.bin_index ~ngroups:t.ngroups ~used:(Superblock.used sb) ~cap:(Superblock.n_blocks sb)

(* ---- publish: heap -> global transfer ---- *)

(* Caller owns [sb] privately (already unlinked from its heap core, owner
   set to 0). The word store publishes membership; the entry push makes
   it findable. Order matters: an acquirer popping a stale entry for this
   slot between the two sees Idle and may claim — which is correct, the
   superblock IS a quiescent member from the store on. *)
let publish ?(record = fun _ ~arg:_ -> ()) t sb =
  let id =
    let g = Superblock.gslot sb in
    if g >= 0 then g else assign_slot t sb
  in
  let slot = slot_at t id in
  let bin = bin_of t sb in
  let used_bytes = Superblock.used sb * Superblock.block_size sb in
  Atomic.incr t.members;
  if bin = empties_bin t then Atomic.incr t.empties;
  ignore (Atomic.fetch_and_add t.u_bytes used_bytes);
  slot.word.Platform.store (word_idle t bin);
  push_entry t ~sclass:(Superblock.sclass sb) ~bin id;
  Atomic.incr t.pushes;
  record Event_ring.Global_push ~arg:(Superblock.base sb)

(* ---- claiming ---- *)

(* The claim CAS; the mutant replaces it with a blind store that can
   stomp a reclaimer's Busy. *)
let claim t slot ~expected =
  if t.skip_revalidate then begin
    slot.word.Platform.store word_absent;
    true
  end
  else slot.word.Platform.cas ~expected ~desired:word_absent

(* Bookkeeping for a successful claim: the content is private from the
   CAS on, so [used] is stable here. *)
let claimed t ~record sb ~was_empty =
  Atomic.decr t.members;
  if was_empty then Atomic.decr t.empties;
  ignore (Atomic.fetch_and_add t.u_bytes (-(Superblock.used sb * Superblock.block_size sb)));
  Atomic.incr t.pops;
  record Event_ring.Global_pop ~arg:(Superblock.base sb)

(* Put a popped-but-unclaimable entry back where its word says it lives,
   keeping the one-entry-per-member invariant. *)
let repush t ~record slot_id bin =
  let sb = (slot_at t slot_id).sb in
  push_entry t ~sclass:(Superblock.sclass sb) ~bin slot_id;
  Atomic.incr t.revalidates;
  record Event_ring.Global_revalidate ~arg:(Superblock.base sb)

(* Resolve one popped entry against its slot's word. [`Claimed sb] when
   the claim succeeded and the entry satisfied [want]; [`Drop] when the
   entry was stale (discarded, or repushed to a DIFFERENT stack) — the
   caller keeps scanning; [`Busy] when a reclaimer holds the superblock
   — the entry went back onto the SAME stack, so the caller must stop
   scanning it (popping again would just meet the same entry: a scanner
   could otherwise spin pop/repush forever while the reclaimer is
   descheduled, a livelock the explorer's finiteness rule forbids).
   [want] decides claimability from the Idle bin: acquire wants
   allocatable superblocks of its class, take_empty wants empties. *)
let rec resolve t ~record ~want slot_id =
  let slot = slot_at t slot_id in
  let w = slot.word.Platform.load () in
  match decode t w with
  | Absent -> `Drop (* claimed away since the entry was pushed *)
  | Busy b ->
      (* A reclaimer is mutating it; put the entry back for later. *)
      repush t ~record slot_id b;
      `Busy
  | Idle b ->
      if want t slot.sb b then begin
        if claim t slot ~expected:w then begin
          claimed t ~record slot.sb ~was_empty:(b = empties_bin t);
          `Claimed slot.sb
        end
        else begin
          (* The word moved (Busy, Absent or a new bin): another thread
             made progress; re-resolve this same entry. *)
          retry t;
          resolve t ~record ~want slot_id
        end
      end
      else begin
        (* Misplaced entry: its word names another class's stack or
           another bin — the repush lands there, never back here. *)
        repush t ~record slot_id b;
        `Drop
      end

(* An acquire for class [c] may claim any member of class [c] with a free
   block, or any empty (reformatted by the caller). A full member or a
   live member of another class (possible through a stale entry left in
   an old class's stack across a reformat cycle) is repushed to where it
   belongs. *)
let want_for_class sclass t sb b =
  b <> full_bin t && (b = empties_bin t || Superblock.sclass sb = sclass)

let want_empty t _sb b = b = empties_bin t

(* Drain a stack until a claim lands, it runs dry, or a Busy member
   turns up. Terminates: every [`Drop] iteration consumes an entry this
   stack can never get back without another thread's progress, and
   [`Busy] stops immediately. *)
let rec scan t ~record ~want head =
  match pop_entry t head with
  | None -> None
  | Some slot_id -> (
      match resolve t ~record ~want slot_id with
      | `Claimed sb -> Some sb
      | `Drop -> scan t ~record ~want head
      | `Busy -> None)

(* Fullest-first acquire: partial bins from fullest to emptiest, then the
   empties. Never scans the full stack — nothing there is allocatable. *)
let acquire ?(record = fun _ ~arg:_ -> ()) t ~sclass =
  let want = want_for_class sclass in
  let rec bins b =
    if b < 0 then scan t ~record ~want t.empties_head
    else
      match scan t ~record ~want t.heads.(sclass).(b) with
      | Some sb -> Some sb
      | None -> bins (b - 1)
  in
  bins (t.ngroups - 1)

let take_empty ?(record = fun _ ~arg:_ -> ()) t = scan t ~record ~want:want_empty t.empties_head

(* ---- freeing a run of blocks into a member superblock ---- *)

type free_result =
  | Freed of { now_empty : bool }
  | Requeue
  | Not_member of { owner : int }

(* The Busy protocol, once per run: CAS Idle(b) -> Busy(b) wins exclusive
   mutation rights without any lock; every block of the run is freed
   (custody mark cleared, bitmap bit dropped), [inside] runs the caller's
   simulated link and header writes, and one closing store Idle(b')
   republishes. A concurrent claimer cannot interleave: claims CAS against
   Idle and the word is Busy throughout, so the writes never land on a
   superblock some heap already owns. A bin change pushes one fresh entry
   to the new bin (the old bin's entry — still present, or being repushed
   by an acquirer that saw Busy — goes stale). On [Requeue] and
   [Not_member] nothing is touched. *)
let free_run ?(inside = fun () -> ()) t sb ~addrs =
  let g = Superblock.gslot sb in
  if g < 0 then Not_member { owner = Superblock.owner sb }
  else begin
    let slot = slot_at t g in
    let rec claim_busy () =
      let w = slot.word.Platform.load () in
      match decode t w with
      | Absent -> Not_member { owner = Superblock.owner sb }
      | Busy _ -> Requeue
      | Idle b ->
          if slot.word.Platform.cas ~expected:w ~desired:(word_busy t b) then begin
            List.iter
              (fun addr ->
                Superblock.clear_cached sb addr;
                Superblock.free_block sb addr)
              addrs;
            inside ();
            let b' = bin_of t sb in
            let now_empty = b' = empties_bin t in
            ignore (Atomic.fetch_and_add t.u_bytes (-(List.length addrs * Superblock.block_size sb)));
            if now_empty then Atomic.incr t.empties;
            slot.word.Platform.store (word_idle t b');
            if b' <> b then push_entry t ~sclass:(Superblock.sclass sb) ~bin:b' g;
            Freed { now_empty }
          end
          else begin
            retry t;
            claim_busy ()
          end
    in
    claim_busy ()
  end

(* ---- gauges and counters ---- *)

let members t = Atomic.get t.members

let empties t = Atomic.get t.empties

let u_bytes t = Atomic.get t.u_bytes

let pushes t = Atomic.get t.pushes

let pops t = Atomic.get t.pops

let revalidates t = Atomic.get t.revalidates

let retries t = Atomic.get t.retries

(* ---- quiescent mutation (peek/poke, charge-free) ----

   Teardown-time counterparts of [publish] and [free_run] for
   [Hoard.flush_caches], which runs after every worker has joined: the
   same state transitions with no simulated cost and no schedule
   visibility, so draining caches at exit does not perturb replay. *)

let q_pop_node t head =
  let packed = head.Platform.peek () in
  let tag, idx = unpack packed in
  if idx < 0 then None
  else begin
    let below = (node_at t idx).n_next.Platform.peek () in
    head.Platform.poke (pack ~tag:(next_tag t tag) ~idx:below);
    Some idx
  end

let q_push_node t head idx =
  let packed = head.Platform.peek () in
  let tag, top = unpack packed in
  (node_at t idx).n_next.Platform.poke top;
  head.Platform.poke (pack ~tag:(next_tag t tag) ~idx)

let q_take_node t =
  match q_pop_node t t.free_head with
  | Some i -> i
  | None -> take_fresh t

let q_push_entry t ~sclass ~bin slot =
  let i = q_take_node t in
  (node_at t i).n_slot <- slot;
  q_push_node t (head_for t ~sclass ~bin) i

let q_publish t sb =
  let id =
    let g = Superblock.gslot sb in
    if g >= 0 then g else assign_slot t sb
  in
  let slot = slot_at t id in
  let bin = bin_of t sb in
  Atomic.incr t.members;
  if bin = empties_bin t then Atomic.incr t.empties;
  ignore (Atomic.fetch_and_add t.u_bytes (Superblock.used sb * Superblock.block_size sb));
  slot.word.Platform.poke (word_idle t bin);
  q_push_entry t ~sclass:(Superblock.sclass sb) ~bin id;
  Atomic.incr t.pushes

let q_free t sb ~addr =
  let g = Superblock.gslot sb in
  if g < 0 then failwith (t.name ^ ": q_free on a superblock that was never a member");
  let slot = slot_at t g in
  let b =
    match decode t (slot.word.Platform.peek ()) with
    | Idle b -> b
    | Absent -> failwith (t.name ^ ": q_free on a non-member superblock")
    | Busy _ -> failwith (t.name ^ ": q_free found a Busy word at quiescence")
  in
  Superblock.free_block sb addr;
  let b' = bin_of t sb in
  ignore (Atomic.fetch_and_add t.u_bytes (-(Superblock.block_size sb)));
  if b' = empties_bin t then Atomic.incr t.empties;
  slot.word.Platform.poke (word_idle t b');
  if b' <> b then q_push_entry t ~sclass:(Superblock.sclass sb) ~bin:b' g

(* ---- quiescent introspection (peek-only, charge-free) ---- *)

(* Members at quiescence = slots whose word is not Absent. Busy here
   means a reclaimer died mid-protocol — that is a failure, not a state
   to iterate past. *)
let iter_members t f =
  let slots = Atomic.get t.slots in
  let n = Atomic.get t.n_slots in
  for i = 0 to n - 1 do
    let s = slots.(i) in
    match decode t (s.word.Platform.peek ()) with
    | Absent -> ()
    | Idle _ -> f s.sb
    | Busy _ -> failwith (Printf.sprintf "%s: superblock Busy at quiescence" t.name)
  done

let fail t fmt = Printf.ksprintf (fun m -> failwith (t.name ^ ": " ^ m)) fmt

(* Exhaustive structural check, quiescent-only.

   Walks every stack (all (class, bin) heads, the empties, the free
   list) with a global node-seen set: a node reached twice, a cycle, or
   a node reachable from no head at all ("global-no-aba"'s stale-splice
   strand) fails. Then validates every slot: no Busy words, recorded bin
   = recomputed bin, and every Idle member reachable in its own bin's
   stack (the lazy-deletion invariant). Gauges must equal recomputed
   sums. *)
let check t =
  let n_nodes = Atomic.get t.next_fresh in (* ids past [next_fresh] exist but were never handed out *)
  let n_slots = Atomic.get t.n_slots in
  let seen = Array.make (max 1 n_nodes) false in
  let walked = ref 0 in
  (* slots reachable per stack: stack key -> slot id list *)
  let reach = Hashtbl.create 64 in
  let walk key head =
    let rec go idx n =
      if idx >= 0 then begin
        if n > n_nodes then fail t "stack %s longer than the node table (cycle?)" key;
        if idx >= n_nodes then fail t "stack %s references node %d beyond the table" key idx;
        if seen.(idx) then fail t "node %d reachable twice (lost ABA tag?)" idx;
        seen.(idx) <- true;
        incr walked;
        let s = (node_at t idx).n_slot in
        if key <> "free" then begin
          if s < 0 || s >= n_slots then fail t "stack %s entry names bad slot %d" key s;
          Hashtbl.add reach key s
        end;
        go ((node_at t idx).n_next.Platform.peek ()) (n + 1)
      end
    in
    go (snd (unpack (head.Platform.peek ()))) 0
  in
  walk "free" t.free_head;
  for c = 0 to t.nclasses - 1 do
    for b = 0 to t.ngroups do
      walk (Printf.sprintf "c%db%d" c b) t.heads.(c).(b)
    done
  done;
  walk "empties" t.empties_head;
  if !walked <> n_nodes then
    fail t "%d of %d allocated nodes unreachable from any head (stale splice?)" (n_nodes - !walked) n_nodes;
  let members = ref 0 and empties = ref 0 and u = ref 0 in
  let slots = Atomic.get t.slots in
  for i = 0 to n_slots - 1 do
    let s = slots.(i) in
    if Superblock.gslot s.sb <> i then fail t "slot %d: superblock's gslot diverged" i;
    match decode t (s.word.Platform.peek ()) with
    | Absent -> ()
    | Busy b -> fail t "slot %d: Busy(%d) at quiescence" i b
    | Idle b ->
        incr members;
        let want = bin_of t s.sb in
        if b <> want then fail t "slot %d: recorded bin %d but fullness says %d" i b want;
        if b = empties_bin t then incr empties;
        u := !u + (Superblock.used s.sb * Superblock.block_size s.sb);
        let key =
          if b = empties_bin t then "empties" else Printf.sprintf "c%db%d" (Superblock.sclass s.sb) b
        in
        if not (List.mem i (Hashtbl.find_all reach key)) then
          fail t "slot %d: Idle(%d) member unreachable in stack %s" i b key;
        Superblock.check s.sb
  done;
  if Atomic.get t.members <> !members then
    fail t "members gauge %d but %d Idle slots" (Atomic.get t.members) !members;
  if Atomic.get t.empties <> !empties then
    fail t "empties gauge %d but %d empty members" (Atomic.get t.empties) !empties;
  if Atomic.get t.u_bytes <> !u then fail t "u gauge %dB but members sum to %dB" (Atomic.get t.u_bytes) !u
