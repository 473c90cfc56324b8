(* The heap sanitizer, composed over a Hoard instance (see the .mli). The
   quarantine ring sits behind a host mutex: step-atomic on the
   simulator, real exclusion across domains, zero simulated cost. *)

exception Violation of string

type t = {
  pf : Platform.t;
  hoard : Hoard.t;
  inner : Alloc_intf.t; (* Hoard's own, unchecked entry points *)
  q : int Queue.t; (* quarantined block addresses, oldest first *)
  q_set : (int, unit) Hashtbl.t;
  q_cap : int;
  q_mu : Mutex.t;
}

let default_quarantine = 32

let create ?(quarantine = default_quarantine) pf hoard =
  if quarantine < 0 then invalid_arg "Sanitizer.create: quarantine must be non-negative";
  let inner = Hoard.allocator hoard in
  let q_mu = Mutex.create () in
  { pf; hoard; inner; q = Queue.create (); q_set = Hashtbl.create 64; q_cap = quarantine; q_mu }

let quarantined s addr = Mutex.protect s.q_mu (fun () -> Hashtbl.mem s.q_set addr)

let quarantine_length s = Mutex.protect s.q_mu (fun () -> Queue.length s.q)

(* Empty the ring, oldest first. *)
let take s =
  Mutex.protect s.q_mu (fun () ->
      let items = List.of_seq (Queue.to_seq s.q) in
      Queue.clear s.q;
      Hashtbl.reset s.q_set;
      items)

(* Build and raise the diagnostic: what happened, where, the owning
   superblock and heap, and that heap's last six event-ring entries (when
   tracing is on). Terminal, so the unlocked ring read is fine. *)
let report s ~what ~addr sb =
  let b = Buffer.create 128 in
  Printf.bprintf b "heap sanitizer: %s at 0x%x" what addr;
  Option.iter
    (fun sb ->
      Printf.bprintf b " (superblock 0x%x class=%d block=%dB owner=heap%d)" (Superblock.base sb)
        (Superblock.sclass sb) (Superblock.block_size sb) (Superblock.owner sb);
      let evs = Option.fold ~none:[] ~some:Event_ring.to_list (Hoard.heap_ring s.hoard (Superblock.owner sb)) in
      let n = List.length evs in
      if n > 0 then Buffer.add_string b "; last heap events:";
      List.iteri
        (fun i (e : Event_ring.event) ->
          if i >= n - 6 then
            Printf.bprintf b " [%s at=%d proc=%d class=%d arg=%d]" (Event_ring.kind_name e.kind) e.at e.who e.sclass
              e.arg)
        evs)
    sb;
  raise (Violation (Buffer.contents b))

(* Charge the path work, validate, poison with a whole-block write (the
   cost and coherence traffic are modelled) and quarantine; the evicted
   oldest block takes Hoard's free. An address outside every superblock
   goes straight to Hoard's free, which charges the path work itself. *)
let free s addr =
  match Hoard.lookup s.hoard addr with
  | None -> (
    try s.inner.free addr with Invalid_argument _ -> report s ~what:"free of foreign pointer" ~addr None)
  | Some sb ->
    s.pf.Platform.work Hoard.path_work;
    if quarantined s addr then report s ~what:"double free (block still in quarantine)" ~addr (Some sb);
    (match Superblock.locate sb addr with
     | Superblock.Header -> report s ~what:"free of a superblock header address" ~addr (Some sb)
     | Superblock.Tail_waste -> report s ~what:"free of a tail-waste address" ~addr (Some sb)
     | Superblock.Block { b_start; b_live; _ } ->
       if b_start <> addr then report s ~what:"free of an interior pointer" ~addr (Some sb);
       if not b_live then report s ~what:"double free" ~addr (Some sb));
    s.pf.Platform.write ~addr ~len:(Superblock.block_size sb);
    let evicted =
      Mutex.protect s.q_mu (fun () ->
          Queue.push addr s.q;
          Hashtbl.replace s.q_set addr ();
          if Queue.length s.q <= s.q_cap then None
          else begin
            let a = Queue.pop s.q in
            Hashtbl.remove s.q_set a;
            Some a
          end)
    in
    Option.iter s.inner.free evicted

let usable_size s addr =
  match Hoard.lookup s.hoard addr with
  | Some sb ->
    if quarantined s addr then report s ~what:"usable_size of a freed (quarantined) block" ~addr (Some sb);
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else report s ~what:"usable_size of a dead block" ~addr (Some sb)
  | None -> s.inner.usable_size addr

let realloc s ~addr ~size =
  if size > 0 && quarantined s addr then
    report s ~what:"realloc of a freed (quarantined) block" ~addr (Hoard.lookup s.hoard addr);
  Alloc_api.generic_realloc s.pf ~malloc:s.inner.malloc ~free:(free s) ~usable_size:(usable_size s) ~addr ~size

let flush_caches s =
  List.iter (Hoard.free_quiescent s.hoard) (take s);
  Hoard.flush_caches s.hoard

let access_check s ~addr ~len ~write =
  match Hoard.lookup s.hoard addr with
  | None -> ()
  | Some sb ->
    let what =
      match Superblock.locate sb addr with
      | Superblock.Header ->
        Some (if write then "header canary clobbered (write into a superblock header)" else "read of a superblock header")
      | Superblock.Tail_waste -> Some "access to superblock tail waste"
      | Superblock.Block { b_start; b_live; _ } ->
        if (not b_live) || quarantined s b_start then
          Some (if write then "use-after-free write to a poisoned block" else "use-after-free read of a poisoned block")
        else if addr + len > b_start + Superblock.block_size sb then Some "buffer overflow past the end of a block"
        else None
    in
    Option.iter (fun what -> report s ~what ~addr (Some sb)) what

(* In-thread [flush] and [thread_exit] first complete every quarantined
   free through Hoard's free, with its usual costs. *)
let allocator s =
  let inner = s.inner in
  let drained f () =
    List.iter inner.free (take s);
    f ()
  in
  Alloc_api.make ~pf:s.pf ~name:inner.name ~owner:inner.owner ~large_threshold:inner.large_threshold
    ~malloc:inner.malloc ~free:(free s) ~usable_size:(usable_size s) ~stats:inner.stats ~check:inner.check
    ~malloc_batch:inner.malloc_batch ~flush:(drained inner.flush) ~thread_exit:(drained inner.thread_exit)
    ~realloc:(realloc s) ()
