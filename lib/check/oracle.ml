(* Differential allocation oracle: a trivially-correct reference model
   mirrored alongside a real allocator. Every malloc/free/realloc/...
   flowing through the wrapped interface is checked against a live-set
   map (no overlap, usable >= requested, frees of live blocks only) and
   an ideal serial allocator U tracker (peak live bytes, requested and
   usable), which at quiescence yields the paper's blowup test:
   held <= O(U + P-term).

   The oracle's own state is host state behind a host mutex: step-atomic
   on the simulator (so installing it never changes a run's schedule or
   timing) and safe across real domains. Oracle updates happen on the
   caller's side of the allocator call that owns the address (insert
   after malloc returns, remove before free is issued), so the window in
   which another thread could legally reuse the address is empty. *)

exception Oracle_violation of string

module IntMap = Map.Make (Int)

type info = {
  i_req : int; (* requested size *)
  i_usable : int;
  i_tid : int;
  i_virgin : bool; (* address never allocated before this block *)
}

type t = {
  a_name : string;
  mu : Mutex.t;
  mutable live : info IntMap.t; (* block start -> info *)
  ever : (int, unit) Hashtbl.t; (* every address ever handed out *)
  mutable u_req : int;
  mutable u_usable : int;
  mutable peak_usable : int;
  mutable n_mallocs : int;
  mutable n_frees : int;
  (* Cache lines the allocator carved for two different threads out of
     fresh (never previously handed out) memory: actively-induced false
     sharing. Reuse of recycled addresses is passively inherited and not
     counted. Lines are counted once. *)
  shared_lines : (int, unit) Hashtbl.t;
  line_tids : (int, int list) Hashtbl.t; (* line -> distinct tids given virgin blocks there *)
}

let fail t fmt = Printf.ksprintf (fun s -> raise (Oracle_violation (Printf.sprintf "oracle[%s]: %s" t.a_name s))) fmt

let create ~name =
  {
    a_name = name;
    mu = Mutex.create ();
    live = IntMap.empty;
    ever = Hashtbl.create 1024;
    u_req = 0;
    u_usable = 0;
    peak_usable = 0;
    n_mallocs = 0;
    n_frees = 0;
    shared_lines = Hashtbl.create 64;
    line_tids = Hashtbl.create 1024;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let lines_of ~addr ~len =
  let first = addr / Cache.line_size and last = (addr + max 1 len - 1) / Cache.line_size in
  List.init (last - first + 1) (fun i -> first + i)

(* Caller holds [mu]. *)
let note_insert t ~addr ~req ~usable ~tid =
  (match IntMap.find_last_opt (fun k -> k <= addr) t.live with
   | Some (k, inf) when k + inf.i_usable > addr ->
     fail t "block 0x%x+%d overlaps live block 0x%x+%d" addr usable k inf.i_usable
   | _ -> ());
  (match IntMap.find_first_opt (fun k -> k > addr) t.live with
   | Some (k, inf) when addr + usable > k ->
     fail t "block 0x%x+%d overlaps live block 0x%x+%d" addr usable k inf.i_usable
   | _ -> ());
  if usable < req then fail t "usable %d < requested %d at 0x%x" usable req addr;
  let virgin = not (Hashtbl.mem t.ever addr) in
  Hashtbl.replace t.ever addr ();
  t.live <- IntMap.add addr { i_req = req; i_usable = usable; i_tid = tid; i_virgin = virgin } t.live;
  t.u_req <- t.u_req + req;
  t.u_usable <- t.u_usable + usable;
  if t.u_usable > t.peak_usable then t.peak_usable <- t.u_usable;
  t.n_mallocs <- t.n_mallocs + 1;
  if virgin then
    List.iter
      (fun line ->
        let tids = try Hashtbl.find t.line_tids line with Not_found -> [] in
        if not (List.mem tid tids) then begin
          if tids <> [] then Hashtbl.replace t.shared_lines line ();
          Hashtbl.replace t.line_tids line (tid :: tids)
        end)
      (lines_of ~addr ~len:usable)

(* Caller holds [mu]. *)
let note_remove t ~addr ~what =
  match IntMap.find_opt addr t.live with
  | None -> fail t "%s of address 0x%x that is not a live block" what addr
  | Some inf ->
    t.live <- IntMap.remove addr t.live;
    t.u_req <- t.u_req - inf.i_req;
    t.u_usable <- t.u_usable - inf.i_usable;
    t.n_frees <- t.n_frees + 1;
    inf

(* Undo a [note_remove] whose allocator-side operation raised before
   taking effect (a realloc rejected up front): the block is still live.
   Caller holds [mu]. *)
let note_restore t ~addr inf =
  t.live <- IntMap.add addr inf t.live;
  t.u_req <- t.u_req + inf.i_req;
  t.u_usable <- t.u_usable + inf.i_usable;
  t.n_frees <- t.n_frees - 1

let live_count t = locked t (fun () -> IntMap.cardinal t.live)

let peak_usable_bytes t = locked t (fun () -> t.peak_usable)

let active_shared_lines t = locked t (fun () -> Hashtbl.length t.shared_lines)

let wrap (pf : Platform.t) (a : Alloc_intf.t) =
  let t = create ~name:a.Alloc_intf.name in
  let tid () = pf.Platform.self_tid () in
  let insert ~addr ~req =
    let usable = a.Alloc_intf.usable_size addr in
    locked t (fun () -> note_insert t ~addr ~req ~usable ~tid:(tid ()))
  in
  let wrapped =
    {
      a with
      Alloc_intf.malloc =
        (fun size ->
          let addr = a.Alloc_intf.malloc size in
          insert ~addr ~req:size;
          addr);
      free =
        (fun addr ->
          ignore (locked t (fun () -> note_remove t ~addr ~what:"free"));
          a.Alloc_intf.free addr);
      realloc =
        (fun ~addr ~size ->
          let inf = locked t (fun () -> note_remove t ~addr ~what:"realloc") in
          (match a.Alloc_intf.realloc ~addr ~size with
           | fresh ->
             insert ~addr:fresh ~req:size;
             fresh
           | exception e ->
             (* Rejected up front (e.g. size 0): the old block survives. *)
             locked t (fun () -> note_restore t ~addr inf);
             raise e));
      calloc =
        (fun ~count ~size ->
          let addr = a.Alloc_intf.calloc ~count ~size in
          insert ~addr ~req:(count * size);
          addr);
      aligned_alloc =
        (fun ~align ~size ->
          let addr = a.Alloc_intf.aligned_alloc ~align ~size in
          if addr mod align <> 0 then fail t "aligned_alloc(%d) returned unaligned 0x%x" align addr;
          insert ~addr ~req:size;
          addr);
      malloc_batch =
        (fun n size ->
          let addrs = a.Alloc_intf.malloc_batch n size in
          Array.iter (fun addr -> insert ~addr ~req:size) addrs;
          addrs);
      free_batch =
        (fun addrs ->
          Array.iter (fun addr -> ignore (locked t (fun () -> note_remove t ~addr ~what:"free"))) addrs;
          a.Alloc_intf.free_batch addrs);
      check =
        (fun () ->
          a.Alloc_intf.check ();
          let s = a.Alloc_intf.stats () in
          locked t (fun () ->
              (* Blocks parked in front-end caches or the sanitizer
                 quarantine keep the allocator's live bytes above the
                 program's; it must never fall below. *)
              if s.Alloc_stats.live_bytes < t.u_usable then
                fail t "allocator live bytes %d below the program's %d" s.Alloc_stats.live_bytes t.u_usable));
    }
  in
  (t, wrapped)

let check_blowup t ~(stats : Alloc_stats.snapshot) ~bound =
  if stats.Alloc_stats.peak_held_bytes > bound then
    fail t "blowup: peak held %d bytes exceeds bound %d (U_usable=%d)" stats.Alloc_stats.peak_held_bytes bound
      (peak_usable_bytes t)

(* The memory-lifecycle invariant: resident (committed) bytes never
   exceed what is held from the OS — a region unmapped without its
   resident debit, or recommitted twice, breaks this. *)
let check_residency t ~(stats : Alloc_stats.snapshot) =
  if stats.Alloc_stats.resident_bytes > stats.Alloc_stats.held_bytes then
    fail t "resident %d bytes exceeds held %d" stats.Alloc_stats.resident_bytes stats.Alloc_stats.held_bytes

let final_check ?expect_quiescent_equality t ~(stats : Alloc_stats.snapshot) =
  locked t (fun () ->
      let sum_req = IntMap.fold (fun _ i acc -> acc + i.i_req) t.live 0 in
      let sum_usable = IntMap.fold (fun _ i acc -> acc + i.i_usable) t.live 0 in
      if sum_req <> t.u_req || sum_usable <> t.u_usable then
        fail t "internal accounting drift (req %d/%d, usable %d/%d)" sum_req t.u_req sum_usable t.u_usable;
      match expect_quiescent_equality with
      | Some true ->
        if stats.Alloc_stats.live_bytes <> t.u_usable then
          fail t "at quiescence allocator live bytes %d <> program live %d" stats.Alloc_stats.live_bytes
            t.u_usable
      | _ ->
        if stats.Alloc_stats.live_bytes < t.u_usable then
          fail t "allocator live bytes %d below the program's %d" stats.Alloc_stats.live_bytes t.u_usable)
