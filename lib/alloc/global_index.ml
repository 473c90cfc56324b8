(* The lock-free global heap: a per-(size-class, fullness) index of the
   superblocks heap 0 holds, built so that every transfer to or from
   the global heap — and every free into a global superblock — completes
   with CAS only, never acquiring the heap-0 lock.

   Structure. Each member superblock owns one SLOT: a record carrying the
   superblock and one atomic WORD encoding (state, fullness bin). Slots
   are allocated once per superblock (the id is cached in
   [Superblock.gslot]) and live forever in an append-only table, so a
   stale reader can always dereference a slot id it popped. Membership is
   advertised through ABA-tagged Treiber stacks of ENTRY NODES, one
   partial stack per class plus a class-agnostic stack of empties, all
   sharing one growing {!Lockfree} pool whose per-processor free lists
   recycle nodes on pop. A full member has no entry anywhere: no acquire
   can use it, and the free that takes it out of full pushes its entry.

   Three bins, not the heaps' fullness groups. The paper's nearly-full-
   first policy orders the superblocks within a per-processor heap, where
   malloc picks among them; the global heap only hands whole superblocks
   to heaps, which then allocate from them fullest-first. With one
   partial stack per class an acquire loads one head before the empties,
   and a free pushes only when the superblock moves between full, partial
   and empty.

   Construction and line addresses. Every simulated atomic takes the next
   cache line when it is created, so creation order decides which line
   each atomic gets. [create] makes two: the pool's free word
   "<name>.free", then the empties head "<name>.empties". Everything else
   is made at first use, in the order the run reaches it: a slot word "<name>.w<id>" when a superblock
   is first published, pool nodes "<name>.n<i>" as the table grows, and a
   class's partial head "<name>.c<class>b0" when the class first needs it
   ([acquire], or an entry pushed for one of its partial members). A head
   is built under [mu] and published through the class's host atomic,
   like the slot table. Its first simulated access is the same costed
   load or CAS it would have been on a head built up front, on a line no
   processor has touched either way, so building late changes no
   simulated cost; it only spares the set-up the head of each class a run
   never uses (of 30 classes by default). The pool's per-processor free
   lists "<name>.free.p<proc>"
   are built the same way, at a processor's first push or pop. [check]
   looks the heads up without building any.

   The word is the ground truth; the stacks are a lazily-maintained index:

     Absent        not a member (owned by some heap, or in transit)
     Idle b        member, quiescent, fullness bin b
     Busy b        member, one reclaimer is freeing a block into it

   Entries may be stale — a superblock that moved bins (or left the index
   and came back) leaves old entries behind. The maintained invariant is
   one-sided: at quiescence, every Idle(b) member that is not full has at
   least one entry in its (class, b) stack. Whoever stores a word's bin
   pushes that member's own entry there: publish, and a free's closing
   store when it changes the bin. An acquirer that pops an entry for a
   Busy member pushes it back, since the holder may leave the bin as it
   was. Any other entry a scanner cannot claim is a duplicate and is
   dropped, so staleness costs retries, never correctness.

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
   happens only after a claim), so a member moves from full to partial
   and from there to empty, never back.

   Mutants: [aba_tag:false] freezes every stack tag ("global-no-aba",
   the pool's own flag) — a pop over a concurrently recycled head splices
   a stale tail and strands nodes that the pool walk in [check] then
   finds reachable twice or unreachable.
   [skip_revalidate:true] ("global-skip-revalidate") turns the claim CAS
   into a plain store, stomping a concurrent reclaimer's Busy. *)

type slot = {
  sb : Superblock.t;
  word : Platform.atomic_int;
}

type t = {
  pf : Platform.t;
  name : string;
  nclasses : int;
  skip_revalidate : bool;
  on_retry : unit -> unit;
  (* Append-only slot table, published via host atomics, grown under [mu]
     (a host mutex: zero simulated cost, construction-discipline only). *)
  slots : slot array Atomic.t;
  n_slots : int Atomic.t;
  mu : Mutex.t;
  entries : int Lockfree.pool; (* payload: slot id *)
  (* heads.(class): the class's partial stack; [None] until the class's
     first use, built under [mu] (see [class_head]). *)
  heads : int Lockfree.t option Atomic.t array;
  empties_head : int Lockfree.t; (* class-agnostic: any empty can take any class *)
  (* Gauges: host atomics, exact at quiescence. *)
  members : int Atomic.t;
  empties : int Atomic.t;
  u_bytes : int Atomic.t; (* usable live bytes inside member superblocks *)
}

(* ---- word encoding: state * nbins + bin ---- *)

(* [Heap_core]'s bins with one fullness group: partial, full, empty. *)
let partial_bin = 0

let full_bin = Heap_core.full_bin_index ~ngroups:1

let empties_bin = Heap_core.empties_bin_index ~ngroups:1

let nbins = empties_bin + 1

let word_absent = 0

let word_idle b = nbins + b

let word_busy b = (2 * nbins) + b

type state =
  | Absent
  | Idle of int
  | Busy of int

let decode w =
  match w / nbins with
  | 0 -> Absent
  | 1 -> Idle (w mod nbins)
  | 2 -> Busy (w mod nbins)
  | _ -> failwith "Global_index: corrupt state word"

let create pf ~name ~nclasses ?(aba_tag = true) ?(skip_revalidate = false) ?(on_retry = fun () -> ()) () =
  if nclasses < 1 then invalid_arg "Global_index.create: nclasses must be >= 1";
  let entries = Lockfree.pool pf ~name ~aba_tag ~on_retry () in
  {
    pf;
    name;
    nclasses;
    skip_revalidate;
    on_retry;
    slots = Atomic.make [||];
    n_slots = Atomic.make 0;
    mu = Mutex.create ();
    entries;
    heads = Array.init nclasses (fun _ -> Atomic.make None);
    empties_head = (Lockfree.add_stacks entries [| "empties" |]).(0);
    members = Atomic.make 0;
    empties = Atomic.make 0;
    u_bytes = Atomic.make 0;
  }

let retry t = t.on_retry ()

let slot_at t i = (Atomic.get t.slots).(i)

(* Class [sclass]'s partial stack, built on the class's first use. *)
let class_head t sclass =
  let cell = t.heads.(sclass) in
  match Atomic.get cell with
  | Some h -> h
  | None ->
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        match Atomic.get cell with
        | Some h -> h
        | None ->
          let h = (Lockfree.add_stacks t.entries [| Printf.sprintf "c%db%d" sclass partial_bin |]).(0) in
          Atomic.set cell (Some h);
          h)

(* The stack for a member in (sclass, bin), partial or empty. *)
let head_for t ~sclass ~bin = if bin = empties_bin then t.empties_head else class_head t sclass

(* [head_for] without building: [None] for a class never used. *)
let built_head t ~sclass ~bin = if bin = empties_bin then Some t.empties_head else Atomic.get t.heads.(sclass)

(* Push one membership entry for [slot] onto stack (sclass, bin), costed
   or ([push] = [Lockfree.q_push]) quiescent; the growing pool never
   refuses. A full member gets none. *)
let push_entry ?(push = Lockfree.push) t ~sclass ~bin slot =
  if bin <> full_bin then ignore (push (head_for t ~sclass ~bin) slot)

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

let bin_of sb = Heap_core.bin_index ~ngroups:1 ~used:(Superblock.used sb) ~cap:(Superblock.n_blocks sb)

(* ---- publish: heap -> global transfer ---- *)

(* Caller owns [sb] privately (already unlinked from its heap core, owner
   set to 0). The word store publishes membership; the entry push makes
   it findable (a full member gets no entry: the free that takes it out
   of full pushes one). Order matters: an acquirer popping a stale entry
   for this slot between the two sees Idle and may claim — which is
   correct, the superblock IS a quiescent member from the store on. *)
let publish ?(record = fun _ ~arg:_ -> ()) t sb =
  let id =
    let g = Superblock.gslot sb in
    if g >= 0 then g else assign_slot t sb
  in
  let slot = slot_at t id in
  let bin = bin_of sb in
  let used_bytes = Superblock.used sb * Superblock.block_size sb in
  Atomic.incr t.members;
  if bin = empties_bin then Atomic.incr t.empties;
  ignore (Atomic.fetch_and_add t.u_bytes used_bytes);
  slot.word.Platform.store (word_idle bin);
  push_entry t ~sclass:(Superblock.sclass sb) ~bin id;
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
  record Event_ring.Global_pop ~arg:(Superblock.base sb)

(* Resolve one popped entry against its slot's word. [`Claimed sb] when
   the claim succeeded and the entry satisfied [want]; [`Drop] when the
   entry was stale and is discarded — the caller keeps scanning; [`Busy
   sb] when a reclaimer holds [sb] — the entry went back onto the stack
   of its bin, so the caller must stop scanning it (popping again would
   just meet the same entry: a scanner could otherwise spin pop/repush
   forever while the reclaimer is descheduled, a livelock the explorer's
   finiteness rule forbids). [want] decides claimability from the Idle
   bin: acquire wants allocatable superblocks of its class, take_empty
   wants empties. *)
let rec resolve t ~record ~want slot_id =
  let slot = slot_at t slot_id in
  let w = slot.word.Platform.load () in
  match decode w with
  | Absent -> `Drop (* claimed away since the entry was pushed *)
  | Busy b ->
      (* A reclaimer is mutating it and may leave the bin as it was: put
         the entry back for later. Not from full: the reclaimer's closing
         store always leaves full and pushes the new entry itself. *)
      if b <> full_bin then begin
        push_entry t ~sclass:(Superblock.sclass slot.sb) ~bin:b slot_id;
        record Event_ring.Global_revalidate ~arg:(Superblock.base slot.sb)
      end;
      `Busy slot.sb
  | Idle b ->
      if want slot.sb b then begin
        if claim t slot ~expected:w then begin
          claimed t ~record slot.sb ~was_empty:(b = empties_bin);
          `Claimed slot.sb
        end
        else begin
          (* The word moved (Busy, Absent or a new bin): another thread
             made progress; re-resolve this same entry. *)
          retry t;
          resolve t ~record ~want slot_id
        end
      end
      else
        (* Full, another class's, or another bin's: a duplicate, since
           whoever stored this word pushed the member's own entry where
           it belongs. *)
        `Drop

(* An acquire for class [c] may claim any member of class [c] with a free
   block, or any empty (reinitialised by the caller). A full member or a
   live member of another class (possible through a stale entry left in
   an old class's stack across a reinit cycle) is passed over. *)
let want_for_class sclass sb b = b <> full_bin && (b = empties_bin || Superblock.sclass sb = sclass)

let want_empty _sb b = b = empties_bin

(* Drain a stack until a claim lands, it runs dry, or a Busy member
   turns up. Terminates: every [`Drop] iteration consumes an entry this
   stack can never get back without another thread's progress, and
   [`Busy] stops immediately. *)
let rec scan t ~record ~want head =
  match Lockfree.pop head with
  | None -> `Dry
  | Some slot_id -> (
      match resolve t ~record ~want slot_id with
      | `Drop -> scan t ~record ~want head
      | (`Claimed _ | `Busy _) as r -> r)

let found = function
  | `Claimed sb -> Some sb
  | `Dry | `Busy _ -> None

(* The class's partial stack, then the empties. A Busy entry on top of the
   partial stack hides every partial superblock below it, so the acquire
   falls through to the empties and perhaps to the OS; an acquire that
   met a Busy entry in either scan records one [Global_busy_miss]. *)
let acquire ?(record = fun _ ~arg:_ -> ()) t ~sclass =
  let want = want_for_class sclass in
  match scan t ~record ~want (class_head t sclass) with
  | `Claimed sb -> Some sb
  | partial ->
    let empties = scan t ~record ~want t.empties_head in
    (match (partial, empties) with
     | `Busy sb, _ | _, `Busy sb -> record Event_ring.Global_busy_miss ~arg:(Superblock.base sb)
     | _ -> ());
    found empties

let take_empty ?(record = fun _ ~arg:_ -> ()) t = found (scan t ~record ~want:want_empty t.empties_head)

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
   to the new bin, which is never full (the old bin's entry — still
   present, or being repushed by an acquirer that saw Busy — goes
   stale). On [Requeue] and [Not_member] nothing is touched. *)
let free_run ?(inside = fun () -> ()) t sb ~addrs =
  let g = Superblock.gslot sb in
  if g < 0 then Not_member { owner = Superblock.owner sb }
  else begin
    let slot = slot_at t g in
    let rec claim_busy () =
      let w = slot.word.Platform.load () in
      match decode w with
      | Absent -> Not_member { owner = Superblock.owner sb }
      | Busy _ -> Requeue
      | Idle b ->
          if slot.word.Platform.cas ~expected:w ~desired:(word_busy b) then begin
            List.iter
              (fun addr ->
                Superblock.clear_cached sb addr;
                Superblock.free_block sb addr)
              addrs;
            inside ();
            let b' = bin_of sb in
            let now_empty = b' = empties_bin in
            ignore (Atomic.fetch_and_add t.u_bytes (-(List.length addrs * Superblock.block_size sb)));
            if now_empty then Atomic.incr t.empties;
            slot.word.Platform.store (word_idle b');
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

let nodes t = Lockfree.nodes t.entries

let entries t = Lockfree.live t.entries

(* ---- quiescent mutation (peek/poke, charge-free) ----

   Teardown-time counterparts of [publish] and [free_run] for
   [Hoard.flush_caches], which runs after every worker has joined: the
   same state transitions with no simulated cost and no schedule
   visibility, so draining caches at exit does not perturb replay. *)

let q_publish t sb =
  let id =
    let g = Superblock.gslot sb in
    if g >= 0 then g else assign_slot t sb
  in
  let slot = slot_at t id in
  let bin = bin_of sb in
  Atomic.incr t.members;
  if bin = empties_bin then Atomic.incr t.empties;
  ignore (Atomic.fetch_and_add t.u_bytes (Superblock.used sb * Superblock.block_size sb));
  slot.word.Platform.poke (word_idle bin);
  push_entry ~push:Lockfree.q_push t ~sclass:(Superblock.sclass sb) ~bin id

let q_free t sb ~addr =
  let g = Superblock.gslot sb in
  if g < 0 then failwith (t.name ^ ": q_free on a superblock that was never a member");
  let slot = slot_at t g in
  let b =
    match decode (slot.word.Platform.peek ()) with
    | Idle b -> b
    | Absent -> failwith (t.name ^ ": q_free on a non-member superblock")
    | Busy _ -> failwith (t.name ^ ": q_free found a Busy word at quiescence")
  in
  Superblock.free_block sb addr;
  let b' = bin_of sb in
  ignore (Atomic.fetch_and_add t.u_bytes (-(Superblock.block_size sb)));
  if b' = empties_bin then Atomic.incr t.empties;
  slot.word.Platform.poke (word_idle b');
  if b' <> b then push_entry ~push:Lockfree.q_push t ~sclass:(Superblock.sclass sb) ~bin:b' g

(* ---- quiescent introspection (peek-only, charge-free) ---- *)

(* Members at quiescence = slots whose word is not Absent. Busy here
   means a reclaimer died mid-protocol — that is a failure, not a state
   to iterate past. *)
let iter_members t f =
  let slots = Atomic.get t.slots in
  let n = Atomic.get t.n_slots in
  for i = 0 to n - 1 do
    let s = slots.(i) in
    match decode (s.word.Platform.peek ()) with
    | Absent -> ()
    | Idle _ -> f s.sb
    | Busy _ -> failwith (Printf.sprintf "%s: superblock Busy at quiescence" t.name)
  done

let fail t fmt = Printf.ksprintf (fun m -> failwith (t.name ^ ": " ^ m)) fmt

(* Exhaustive structural check, quiescent-only.

   The pool walk covers the free list and every entry stack built so far
   with one node-seen set: a node reached twice, a cycle, or a node
   reachable from no head at all ("global-no-aba"'s stale-splice strand)
   fails there. Then validates every slot: no Busy words, recorded bin =
   recomputed bin, and every Idle member that is not full reachable in
   its (class, bin) stack (the lazy-deletion invariant), which must have
   been built. Builds no stack itself. Gauges must equal recomputed
   sums. *)
let check t =
  let n_slots = Atomic.get t.n_slots in
  (* slot id -> the stacks holding an entry for it *)
  let reach = Hashtbl.create 64 in
  Lockfree.walk t.entries (fun stack s ->
      if s < 0 || s >= n_slots then fail t "stack %s entry names bad slot %d" (Lockfree.name stack) s;
      Hashtbl.add reach s stack);
  let members = ref 0 and empties = ref 0 and u = ref 0 in
  let slots = Atomic.get t.slots in
  for i = 0 to n_slots - 1 do
    let s = slots.(i) in
    if Superblock.gslot s.sb <> i then fail t "slot %d: superblock's gslot diverged" i;
    match decode (s.word.Platform.peek ()) with
    | Absent -> ()
    | Busy b -> fail t "slot %d: Busy(%d) at quiescence" i b
    | Idle b ->
        incr members;
        let want = bin_of s.sb in
        if b <> want then fail t "slot %d: recorded bin %d but fullness says %d" i b want;
        if b = empties_bin then incr empties;
        u := !u + (Superblock.used s.sb * Superblock.block_size s.sb);
        (match built_head t ~sclass:(Superblock.sclass s.sb) ~bin:b with
         | _ when b = full_bin -> () (* indexed nowhere *)
         | None ->
           fail t "slot %d: Idle(%d) member of class %d, whose stack was never built" i b
             (Superblock.sclass s.sb)
         | Some stack ->
           if not (List.memq stack (Hashtbl.find_all reach i)) then
             fail t "slot %d: Idle(%d) member unreachable in stack %s" i b (Lockfree.name stack));
        Superblock.check s.sb
  done;
  if Atomic.get t.members <> !members then
    fail t "members gauge %d but %d Idle slots" (Atomic.get t.members) !members;
  if Atomic.get t.empties <> !empties then
    fail t "empties gauge %d but %d empty members" (Atomic.get t.empties) !empties;
  if Atomic.get t.u_bytes <> !u then fail t "u gauge %dB but members sum to %dB" (Atomic.get t.u_bytes) !u
