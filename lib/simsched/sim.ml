open Effect
open Effect.Deep

type lock_kind = Spin | Ticket

type lock = {
  l_name : string;
  l_addr : int; (* cache line holding the lock word *)
  l_kind : lock_kind;
  mutable holder : int option; (* tid *)
  mutable acqs : int;
  mutable spins : int;
  mutable waiters : int list; (* FIFO ticket queue (Ticket kind only) *)
  mutable acquired_at : int; (* holder's clock when it acquired (for hold spans) *)
}

(* What the scheduler should do next with a thread. *)
type pending =
  | Start of (unit -> unit) (* body not yet started *)
  | Resume of (unit -> unit) (* stored continuation step *)
  | Try_acquire of lock * (unit -> unit) (* spinning on a lock *)
  | Blocked (* parked on a barrier *)
  | Done

type thread = {
  tid : int;
  proc : int;
  mutable pending : pending;
  mutable cur_spins : int; (* spins paid so far for the acquisition in flight *)
}

type barrier = {
  b_addr : int;
  parties : int;
  mutable arrived : int;
  mutable waiting : (thread * (unit -> unit)) list;
}

(* A simulated atomic word. The value lives in a host [Atomic.t] and every
   operation runs inside the effect handler — one scheduler step, so it is
   step-atomic (linearizable) by construction, with preemption points
   before and after. Like a lock word, it occupies a private cache line so
   coherence traffic (and step footprints, for the explorer's dependence
   analysis) are modelled. *)
type atom = {
  a_name : string;
  a_addr : int;
  a_cell : int Atomic.t;
}

(* The operation an [E_atomic] performs; CAS encodes its outcome as 0/1 in
   the effect's int result. *)
type atomic_op = A_load | A_store of int | A_cas of int * int | A_faa of int

(* What one scheduler step did: fed back to a controlling strategy so
   model checkers can recognise synchronisation points and compute
   dependence between steps (conflicting cache lines). *)
type step_report = {
  sr_step : int;
  sr_proc : int;
  sr_tid : int;
  sr_sync : string option;
  sr_spin : bool;
  sr_reads : int list;
  sr_writes : int list;
}

type choice = {
  ch_step : int;
  ch_runnable : int list;
  ch_spinning : int list;
  ch_last : step_report option;
}

type schedule = Exact | Fuzzed of Rng.t | Controlled of (choice -> int)

(* Under [Exact] a thread keeps its processor until it finishes, blocks on
   a barrier, fails a lock acquisition (one spin, then yield, like a
   spin-then-yield lock) or has run this many cycles since it was picked:
   Linux's 0.75 ms base slice at 3 GHz. Co-located threads thus run one
   after another, as under an OS, instead of interleaving at every memory
   access; the slice bounds a thread that polls for what only a
   co-located thread can do. A slice much shorter than a thread's life
   would make a call that straddles its end wait for every other
   co-located thread's slice. *)
let time_slice = 2_250_000

(* Deferred spawns keyed by (start time, tid): the earliest start first,
   and among equal starts the older thread. *)
module Spawns = Map.Make (struct
  type t = int * int

  let compare (a, i) (b, j) = if a <> b then Int.compare a b else Int.compare i j
end)

type t = {
  nprocs : int;
  topology : Topology.t option;
  lock_kind : lock_kind;
  schedule : schedule;
  cost : Cost_model.t;
  cch : Cache.t;
  vm : Vmem.t;
  clocks : int array;
  runq : thread Queue.t array;
  (* Per processor: the clock at which its run queue's head was picked, or
     -1 before the head's first step. Measures the head's time slice. *)
  slice_from : int array;
  mutable live : int;
  (* Threads that have started (or were spawned for time 0) and not yet
     finished: the churn envelope's P is the peak of this gauge, not the
     total number of threads ever created. *)
  mutable cur_active : int;
  mutable peak_active : int;
  (* Deferred thread creations, ordered by (start time, tid): activated by
     the engine once the machine's next event reaches their start time.
     O(log n) to add or take one. *)
  mutable pending_spawns : thread Spawns.t;
  mutable next_tid : int;
  mutable next_meta : int; (* addresses for lock/barrier words *)
  mutable locks_rev : lock list;
  mutable started : bool;
  (* Observability hooks, called from the scheduler (not from simulated
     threads) so they may touch host state freely. They charge no cycles. *)
  mutable hook_acquire : (name:string -> proc:int -> spins:int -> at:int -> unit) option;
  mutable hook_release : (name:string -> proc:int -> acquired_at:int -> at:int -> unit) option;
  (* Every spawned thread, newest first: deadlock analysis and reporting. *)
  mutable threads_rev : thread list;
  (* Step bookkeeping for controlled scheduling. [observing] gates the
     per-step report collection so the default modes pay nothing. *)
  observing : bool;
  mutable step_idx : int;
  mutable last_report : step_report option;
  mutable rep_sync : string option;
  mutable rep_spin : bool;
  mutable rep_reads : int list;
  mutable rep_writes : int list;
  (* Consecutive failed-spin steps: when the whole machine does nothing but
     spin, run the (O(threads)) progress analysis and report deadlocks that
     spin locks would otherwise turn into max_steps livelocks. *)
  mutable spin_streak : int;
}

exception Deadlock of string

type _ Effect.t +=
  | E_work : int -> unit Effect.t
  | E_read : (int * int) -> unit Effect.t
  | E_write : (int * int) -> unit Effect.t
  | E_acquire : lock -> unit Effect.t
  | E_release : lock -> unit Effect.t
  | E_barrier : barrier -> unit Effect.t
  | E_self : (int * int) Effect.t
  | E_now : int Effect.t
  | E_page_map : (int * int * int) -> int Effect.t (* bytes, align, owner *)
  | E_page_unmap : int -> unit Effect.t
  | E_page_decommit : int -> unit Effect.t
  | E_page_commit : int -> unit Effect.t
  | E_atomic : (atom * atomic_op) -> int Effect.t

let create ?(cost = Cost_model.default) ?(lock_kind = Spin) ?fuzz_schedule ?control ?topology
    ?(vmem_backend = Vmem_backend.Exact) ~nprocs () =
  if nprocs < 1 then invalid_arg "Sim.create: nprocs must be >= 1";
  if fuzz_schedule <> None && control <> None then
    invalid_arg "Sim.create: fuzz_schedule and control are mutually exclusive";
  let topology = Option.map Topology.of_pair topology in
  (match topology with Some topo -> Topology.check ~nprocs topo | None -> ());
  (* Under the two-tier topology the socket is also the memory node, so
     cross-socket traffic pays both surcharges (cross_node + the steeper
     cross_socket) while intra-socket coherence pays neither. *)
  let socket_of = Option.map Topology.socket_of topology in
  {
    nprocs;
    topology;
    lock_kind;
    schedule =
      (match fuzz_schedule, control with
       | None, None -> Exact
       | Some seed, None -> Fuzzed (Rng.create seed)
       | None, Some f -> Controlled f
       | Some _, Some _ -> assert false);
    cost;
    cch = Cache.create ?node_of:socket_of ?socket_of ~nprocs ();
    vm = Vmem.create ~backend:vmem_backend ();
    clocks = Array.make nprocs 0;
    runq = Array.init nprocs (fun _ -> Queue.create ());
    slice_from = Array.make nprocs (-1);
    live = 0;
    cur_active = 0;
    peak_active = 0;
    pending_spawns = Spawns.empty;
    next_tid = 0;
    next_meta = 0x0800_0000; (* below the Vmem base: never collides with heap data *)
    locks_rev = [];
    started = false;
    hook_acquire = None;
    hook_release = None;
    threads_rev = [];
    observing = control <> None;
    step_idx = 0;
    last_report = None;
    rep_sync = None;
    rep_spin = false;
    rep_reads = [];
    rep_writes = [];
    spin_streak = 0;
  }

let nprocs t = t.nprocs

let topology t = t.topology

let live_threads t = t.cur_active

let peak_live_threads t = t.peak_active

let cache t = t.cch

let vmem t = t.vm

let total_cycles t = Array.fold_left max 0 t.clocks

let fresh_meta_addr t =
  let a = t.next_meta in
  t.next_meta <- a + Cache.line_size;
  a

let new_lock t l_name =
  let l =
    {
      l_name;
      l_addr = fresh_meta_addr t;
      l_kind = t.lock_kind;
      holder = None;
      acqs = 0;
      spins = 0;
      waiters = [];
      acquired_at = 0;
    }
  in
  t.locks_rev <- l :: t.locks_rev;
  l

let lock_acquisitions l = l.acqs

let lock_stats t = List.rev_map (fun l -> (l.l_name, l.acqs, l.spins)) t.locks_rev

let set_lock_hooks t ?on_acquire ?on_release () =
  t.hook_acquire <- on_acquire;
  t.hook_release <- on_release

let new_barrier t ~parties =
  if parties < 1 then invalid_arg "Sim.new_barrier: parties must be >= 1";
  { b_addr = fresh_meta_addr t; parties; arrived = 0; waiting = [] }

let new_atomic t a_name init = { a_name; a_addr = fresh_meta_addr t; a_cell = Atomic.make init }

(* Thread-side primitives: just effects. *)
let work n = if n > 0 then perform (E_work n)

let read ~addr ~len = perform (E_read (addr, len))

let write ~addr ~len = perform (E_write (addr, len))

let self_proc () = fst (perform E_self)

let self_tid () = snd (perform E_self)

let now () = perform E_now

let acquire l = perform (E_acquire l)

let release l = perform (E_release l)

let barrier_wait b = perform (E_barrier b)

let atomic_load a = perform (E_atomic (a, A_load))

let atomic_store a v = ignore (perform (E_atomic (a, A_store v)))

let atomic_cas a ~expected ~desired = perform (E_atomic (a, A_cas (expected, desired))) = 1

let atomic_faa a n = perform (E_atomic (a, A_faa n))

let charge_access t p (s : Cache.summary) =
  let c = t.cost in
  t.clocks.(p) <-
    t.clocks.(p)
    + (s.hits * c.cache_hit)
    + (s.cold_misses * c.cold_miss)
    + (s.coherence_misses * c.coherence_miss)
    + (s.invalidations_sent * c.invalidation)
    + (s.cross_node_events * c.cross_node)
    + (s.cross_socket_events * c.cross_socket)

let charge t p n = t.clocks.(p) <- t.clocks.(p) + n

(* Step-report collection (controlled mode only): distinct cache lines the
   current step touched, and whether it interacted with a lock/barrier. *)
let note_lines t ~addr ~len ~wr =
  if t.observing then begin
    let ls = Cache.line_size in
    let first = addr / ls and last = (addr + max 1 len - 1) / ls in
    for line = first to last do
      if wr then begin
        if not (List.mem line t.rep_writes) then t.rep_writes <- line :: t.rep_writes
      end
      else if not (List.mem line t.rep_reads) then t.rep_reads <- line :: t.rep_reads
    done
  end

let note_sync t name = if t.observing then t.rep_sync <- Some name

(* The per-thread effect handler. Scheduling effects park the continuation
   in [th.pending] and return to the engine; [E_self] resumes inline since
   it has no cost. *)
let handler t th =
  {
    retc =
      (fun () ->
        th.pending <- Done;
        t.live <- t.live - 1;
        t.cur_active <- t.cur_active - 1);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_work n ->
          Some
            (fun (k : (a, unit) continuation) ->
              charge t th.proc n;
              th.pending <- Resume (fun () -> continue k ()))
        | E_read (addr, len) ->
          Some
            (fun k ->
              note_lines t ~addr ~len ~wr:false;
              charge_access t th.proc (Cache.read t.cch th.proc ~addr ~len);
              th.pending <- Resume (fun () -> continue k ()))
        | E_write (addr, len) ->
          Some
            (fun k ->
              note_lines t ~addr ~len ~wr:true;
              charge_access t th.proc (Cache.write t.cch th.proc ~addr ~len);
              th.pending <- Resume (fun () -> continue k ()))
        | E_acquire l ->
          Some
            (fun k ->
              (* The parking step is the thread's publicly visible intent to
                 acquire: marking it as a sync point lets a controlling
                 strategy preempt between the intent and the attempt. *)
              note_sync t l.l_name;
              th.pending <- Try_acquire (l, fun () -> continue k ()))
        | E_release l ->
          Some
            (fun k ->
              if l.holder <> Some th.tid then
                discontinue k (Invalid_argument ("Sim.release: thread does not hold " ^ l.l_name))
              else begin
                l.holder <- None;
                note_sync t l.l_name;
                note_lines t ~addr:l.l_addr ~len:8 ~wr:true;
                charge_access t th.proc (Cache.write t.cch th.proc ~addr:l.l_addr ~len:8);
                charge t th.proc t.cost.lock_release;
                (match t.hook_release with
                 | Some f -> f ~name:l.l_name ~proc:th.proc ~acquired_at:l.acquired_at ~at:t.clocks.(th.proc)
                 | None -> ());
                th.pending <- Resume (fun () -> continue k ())
              end)
        | E_barrier b ->
          Some
            (fun k ->
              note_sync t "barrier";
              note_lines t ~addr:b.b_addr ~len:8 ~wr:true;
              charge_access t th.proc (Cache.write t.cch th.proc ~addr:b.b_addr ~len:8);
              b.arrived <- b.arrived + 1;
              if b.arrived < b.parties then begin
                th.pending <- Blocked;
                b.waiting <- (th, fun () -> continue k ()) :: b.waiting
              end
              else begin
                (* Last arrival: release everyone at this instant. *)
                let now = t.clocks.(th.proc) in
                List.iter
                  (fun (w, resume) ->
                    w.pending <- Resume resume;
                    if t.clocks.(w.proc) < now then t.clocks.(w.proc) <- now;
                    Queue.push w t.runq.(w.proc))
                  b.waiting;
                b.waiting <- [];
                b.arrived <- 0;
                th.pending <- Resume (fun () -> continue k ())
              end)
        | E_self -> Some (fun k -> continue k (th.proc, th.tid))
        | E_now -> Some (fun k -> continue k t.clocks.(th.proc))
        | E_page_map (bytes, align, owner) ->
          Some
            (fun k ->
              charge t th.proc t.cost.page_map;
              let addr = Vmem.map t.vm ~owner ~bytes ~align () in
              th.pending <- Resume (fun () -> continue k addr))
        | E_page_unmap addr ->
          Some
            (fun k ->
              charge t th.proc t.cost.page_unmap;
              Vmem.unmap t.vm ~addr;
              th.pending <- Resume (fun () -> continue k ()))
        | E_page_decommit addr ->
          Some
            (fun k ->
              charge t th.proc t.cost.page_decommit;
              Vmem.decommit t.vm ~addr;
              th.pending <- Resume (fun () -> continue k ()))
        | E_page_commit addr ->
          Some
            (fun k ->
              charge t th.proc t.cost.page_commit;
              Vmem.commit t.vm ~addr;
              th.pending <- Resume (fun () -> continue k ()))
        | E_atomic (a, op) ->
          Some
            (fun k ->
              (* The whole operation happens inside this step:
                 step-atomic, a sync point the explorer can preempt
                 around, with the word's cache line in the step footprint
                 so concurrent operations on the same atomic conflict.
                 Only an atomic that writes pays [atomic_op]: a load is a
                 plain coherent read on hardware ([mov] on x86-64, [ldar]
                 on ARMv8), priced like [E_read]. *)
              note_sync t a.a_name;
              let wr = match op with A_load -> false | A_store _ | A_cas _ | A_faa _ -> true in
              note_lines t ~addr:a.a_addr ~len:8 ~wr;
              if wr then begin
                charge_access t th.proc (Cache.write t.cch th.proc ~addr:a.a_addr ~len:8);
                charge t th.proc t.cost.atomic_op
              end
              else charge_access t th.proc (Cache.read t.cch th.proc ~addr:a.a_addr ~len:8);
              let r =
                match op with
                | A_load -> Atomic.get a.a_cell
                | A_store v ->
                  Atomic.set a.a_cell v;
                  0
                | A_cas (expected, desired) ->
                  if Atomic.compare_and_set a.a_cell expected desired then 1 else 0
                | A_faa n -> Atomic.fetch_and_add a.a_cell n
              in
              th.pending <- Resume (fun () -> continue k r))
        | _ -> None);
  }

let mark_active t =
  t.cur_active <- t.cur_active + 1;
  if t.cur_active > t.peak_active then t.peak_active <- t.cur_active

let fresh_thread t ?proc body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let proc =
    match proc with
    | Some p ->
      if p < 0 || p >= t.nprocs then invalid_arg "Sim.spawn: bad processor";
      p
    | None -> tid mod t.nprocs
  in
  let th = { tid; proc; pending = Start body; cur_spins = 0 } in
  t.threads_rev <- th :: t.threads_rev;
  t.live <- t.live + 1;
  th

let spawn t ?proc body =
  if t.started then invalid_arg "Sim.spawn: simulation already running";
  let th = fresh_thread t ?proc body in
  Queue.push th t.runq.(th.proc);
  mark_active t;
  th.tid

(* Deferred creation: the thread exists (it has a tid and a processor) but
   joins its run queue only once the machine reaches [at]. Callable both
   before [run] and from inside a running thread, so workloads can model
   churn — populations that are born, serve a burst, and retire. *)
let spawn_at t ~at ?proc body =
  if at < 0 then invalid_arg "Sim.spawn_at: at must be >= 0";
  let th = fresh_thread t ?proc body in
  t.pending_spawns <- Spawns.add (at, th.tid) th t.pending_spawns;
  th.tid

(* Move every deferred spawn whose start time has come onto its run queue.
   "Has come" means at or before the machine's next event (the minimum
   clock over runnable processors); when the machine is idle the earliest
   pending spawn defines the next event and time jumps forward to it. *)
let activate_due_spawns t =
  if not (Spawns.is_empty t.pending_spawns) then begin
    let next_event () =
      let m = ref max_int in
      for p = 0 to t.nprocs - 1 do
        if (not (Queue.is_empty t.runq.(p))) && t.clocks.(p) < !m then m := t.clocks.(p)
      done;
      !m
    in
    let rec loop () =
      match Spawns.min_binding_opt t.pending_spawns with
      | Some (((at, _) as key), th) when at <= next_event () ->
        t.pending_spawns <- Spawns.remove key t.pending_spawns;
        if Queue.is_empty t.runq.(th.proc) && t.clocks.(th.proc) < at then t.clocks.(th.proc) <- at;
        Queue.push th t.runq.(th.proc);
        mark_active t;
        loop ()
      | _ -> ()
    in
    loop ()
  end

(* Whether the thread could advance its pending acquisition right now: a
   spinner on a held lock (or a non-head ticket waiter) only burns a retry. *)
let acquire_can_enter l th =
  l.holder = None
  && (match l.l_kind with
      | Spin -> true
      | Ticket ->
        (match l.waiters with
         | [] -> true
         | head :: _ -> head = th.tid))

(* Whether any live thread could make progress if scheduled: false exactly
   when the machine is deadlocked (every thread parked on a barrier or
   spinning on a lock whose holder can itself never run again). A lock
   with no holder always admits progress: for spin locks any waiter may
   enter, for ticket locks the queue head (necessarily a live waiter). *)
let progress_possible t =
  List.exists
    (fun th ->
      match th.pending with
      | Start _ | Resume _ -> true
      | Try_acquire (l, _) -> l.holder = None
      | Blocked | Done -> false)
    t.threads_rev

let deadlock_message t =
  let live = List.filter (fun th -> match th.pending with Done -> false | _ -> true) (List.rev t.threads_rev) in
  let describe th =
    match th.pending with
    | Try_acquire (l, _) ->
      let holder =
        match l.holder with
        | None -> "nobody"
        | Some tid ->
          (match List.find_opt (fun h -> h.tid = tid) t.threads_rev with
           | Some h -> Printf.sprintf "tid %d (proc %d)" h.tid h.proc
           | None -> Printf.sprintf "tid %d" tid)
      in
      Printf.sprintf "tid %d (proc %d) waits for lock %S held by %s" th.tid th.proc l.l_name holder
    | Blocked -> Printf.sprintf "tid %d (proc %d) blocked on a barrier" th.tid th.proc
    | Start _ | Resume _ -> Printf.sprintf "tid %d (proc %d) runnable" th.tid th.proc
    | Done -> assert false
  in
  Printf.sprintf "%d thread(s) cannot progress: %s" (List.length live)
    (String.concat "; " (List.map describe live))

(* Runs one step of [th]; true exactly when it was a failed acquisition
   (a spin retry). *)
let step t th =
  match th.pending with
  | Start body ->
    t.spin_streak <- 0;
    match_with body () (handler t th);
    false
  | Resume f ->
    t.spin_streak <- 0;
    f ();
    false
  | Try_acquire (l, resume) ->
    let may_enter =
      match l.l_kind with
      | Spin -> l.holder = None
      | Ticket ->
        (* Take a ticket on the first attempt; enter only at the head of
           the queue (FIFO fairness). *)
        if not (List.mem th.tid l.waiters) then l.waiters <- l.waiters @ [ th.tid ];
        l.holder = None
        && (match l.waiters with
            | head :: _ -> head = th.tid
            | [] -> true)
    in
    if may_enter then begin
      (match l.l_kind with
       | Ticket -> l.waiters <- (match l.waiters with _ :: rest -> rest | [] -> [])
       | Spin -> ());
      l.holder <- Some th.tid;
      l.acqs <- l.acqs + 1;
      note_sync t l.l_name;
      note_lines t ~addr:l.l_addr ~len:8 ~wr:true;
      charge_access t th.proc (Cache.write t.cch th.proc ~addr:l.l_addr ~len:8);
      charge t th.proc t.cost.lock_uncontended;
      l.acquired_at <- t.clocks.(th.proc);
      (match t.hook_acquire with
       | Some f -> f ~name:l.l_name ~proc:th.proc ~spins:th.cur_spins ~at:t.clocks.(th.proc)
       | None -> ());
      th.cur_spins <- 0;
      resume ();
      false
    end
    else begin
      (* Spin: re-read the lock word and burn a retry quantum. *)
      t.spin_streak <- t.spin_streak + 1;
      l.spins <- l.spins + 1;
      th.cur_spins <- th.cur_spins + 1;
      note_sync t l.l_name;
      if t.observing then t.rep_spin <- true;
      charge_access t th.proc (Cache.read t.cch th.proc ~addr:l.l_addr ~len:8);
      charge t th.proc t.cost.lock_spin;
      true
    end
  | Blocked | Done -> assert false

let pick_proc t =
  match t.schedule with
  | Exact ->
    let best = ref (-1) in
    for p = t.nprocs - 1 downto 0 do
      if not (Queue.is_empty t.runq.(p)) && (!best < 0 || t.clocks.(p) <= t.clocks.(!best)) then best := p
    done;
    !best
  | Fuzzed rng ->
    (* Correctness fuzzing: any runnable processor may go next. The run
       explores a legal interleaving (effect-granularity atomicity is
       unchanged) but its clocks are not meaningful as timing. *)
    let runnable = ref [] in
    for p = t.nprocs - 1 downto 0 do
      if not (Queue.is_empty t.runq.(p)) then runnable := p :: !runnable
    done;
    (match !runnable with
     | [] -> -1
     | ps -> List.nth ps (Rng.int rng (List.length ps)))
  | Controlled strategy ->
    (* Classify each non-empty processor by what its queue head would do if
       scheduled: a thread whose pending acquisition cannot enter right now
       would only burn a spin retry, so it is reported separately and is not
       a legal choice — this keeps exploration trees finite (a doomed spin is
       a pure no-op transition) and makes "no runnable processor" mean a real
       deadlock. Controlled mode requires at most one thread per processor
       (checked in [run]), so the queue head fully describes the processor. *)
    let runnable = ref [] and spinning = ref [] in
    for p = t.nprocs - 1 downto 0 do
      if not (Queue.is_empty t.runq.(p)) then begin
        let th = Queue.peek t.runq.(p) in
        match th.pending with
        | Try_acquire (l, _) when not (acquire_can_enter l th) -> spinning := p :: !spinning
        | _ -> runnable := p :: !runnable
      end
    done;
    (match !runnable with
     | [] -> -1
     | ps ->
       let choice =
         { ch_step = t.step_idx; ch_runnable = ps; ch_spinning = !spinning; ch_last = t.last_report }
       in
       let p = strategy choice in
       if not (List.mem p ps) then
         invalid_arg (Printf.sprintf "Sim: control strategy chose processor %d, not in runnable set" p);
       p)

let run ?(max_steps = 2_000_000_000) t =
  if t.started then invalid_arg "Sim.run: already ran";
  t.started <- true;
  if t.observing then
    Array.iter
      (fun q -> if Queue.length q > 1 then invalid_arg "Sim.run: controlled mode needs at most one thread per processor")
      t.runq;
  let steps = ref 0 in
  while t.live > 0 do
    incr steps;
    if !steps > max_steps then failwith "Sim.run: max_steps exceeded (livelock?)";
    activate_due_spawns t;
    let p = pick_proc t in
    if p < 0 then raise (Deadlock (deadlock_message t));
    let q = t.runq.(p) in
    let th = Queue.peek q in
    if t.slice_from.(p) < 0 then t.slice_from.(p) <- t.clocks.(p);
    if t.observing then begin
      t.rep_sync <- None;
      t.rep_spin <- false;
      t.rep_reads <- [];
      t.rep_writes <- []
    end;
    let spun = step t th in
    if t.observing then begin
      t.last_report <-
        Some
          {
            sr_step = t.step_idx;
            sr_proc = p;
            sr_tid = th.tid;
            sr_sync = t.rep_sync;
            sr_spin = t.rep_spin;
            sr_reads = t.rep_reads;
            sr_writes = t.rep_writes;
          };
      t.step_idx <- t.step_idx + 1
    end;
    (* Livelock-to-deadlock promotion for the timing modes: a long unbroken
       run of failed spin retries triggers a progress scan; if no live thread
       could ever advance, this is a deadlock that happens to keep the run
       queues busy (spinners never park), so report it as such. *)
    if t.spin_streak > (2 * t.live) + 8 then begin
      if progress_possible t then t.spin_streak <- 0
      else raise (Deadlock (deadlock_message t))
    end;
    (* The step leaves [th] at the head of its queue (barrier releases and
       spawns join at the back). Under [Exact] it stays there for its next
       step unless it spun or its slice is up; the other schedules rotate
       the queue after every step. *)
    let keeps_proc =
      match t.schedule with
      | Exact -> (not spun) && t.clocks.(p) - t.slice_from.(p) < time_slice
      | Fuzzed _ | Controlled _ -> false
    in
    (match th.pending with
     | Done | Blocked ->
       ignore (Queue.pop q);
       t.slice_from.(p) <- -1
     | Start _ | Resume _ | Try_acquire _ ->
       if not keeps_proc then begin
         Queue.push (Queue.pop q) q;
         t.slice_from.(p) <- -1
       end)
  done

let platform t =
  {
    Platform.nprocs = t.nprocs;
    page_size = Vmem.page_size;
    self_proc;
    self_tid;
    work;
    read = (fun ~addr ~len -> read ~addr ~len);
    write = (fun ~addr ~len -> write ~addr ~len);
    new_lock =
      (fun name ->
        let l = new_lock t name in
        { Platform.acquire = (fun () -> acquire l); release = (fun () -> release l); lock_name = name });
    new_atomic =
      (fun name init ->
        let a = new_atomic t name init in
        {
          Platform.load = (fun () -> atomic_load a);
          store = (fun v -> atomic_store a v);
          cas = (fun ~expected ~desired -> atomic_cas a ~expected ~desired);
          faa = (fun n -> atomic_faa a n);
          (* Inspection hooks: read/write the cell directly, charge
             nothing, perturb no schedule (cf. page_residency). *)
          peek = (fun () -> Atomic.get a.a_cell);
          poke = (fun v -> Atomic.set a.a_cell v);
          atomic_name = name;
        });
    now;
    page_map = (fun ~bytes ~align ~owner -> perform (E_page_map (bytes, align, owner)));
    page_unmap = (fun ~addr -> perform (E_page_unmap addr));
    page_decommit = (fun ~addr -> perform (E_page_decommit addr));
    page_commit = (fun ~addr -> perform (E_page_commit addr));
    (* Inspection hooks, not machine ops: they read the vmem directly,
       charge nothing, perturb no schedule. *)
    page_residency = (fun ~addr -> Vmem.residency t.vm ~addr);
    region_bytes = (fun ~addr -> Vmem.region_size t.vm ~addr);
    mapped_bytes = (fun ~owner -> Vmem.mapped_bytes_of_owner t.vm owner);
    peak_mapped_bytes = (fun ~owner -> Vmem.peak_bytes_of_owner t.vm owner);
  }
