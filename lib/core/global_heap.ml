module type S = sig
  type t
  val heap0 : t -> Heap.t option
  val take : t -> Heap.t -> sclass:int -> spill:(Superblock.t * int) list ref -> Superblock.t option
  val put : t -> Heap.t -> Superblock.t list -> unit
  val park :
    t -> Heap.t -> (Superblock.t * int * int) list -> spill:(Superblock.t * int) list ref -> locked:bool -> unit
  val complete : t -> Heap.t -> spill:(Superblock.t * int) list ref -> unit
  val parked : t -> Heap.t -> int
  val iter_parked : t -> Heap.t -> (Superblock.t -> int -> unit) -> unit
  val q_take : t -> Heap.t -> (Superblock.t * int) list
  val q_free : t -> Superblock.t -> addr:int -> unit
  val q_put : t -> Superblock.t -> unit
  val info : t -> Heap.info
  val iter_members : t -> (Superblock.t -> unit) -> unit
  val check : t -> unit
end

type env = {
  pf : Platform.t;
  cfg : Hoard_config.t;
  stats : Alloc_stats.t;
  reg : Sb_registry.t;
}

(* Return one empty superblock the caller holds privately (already
   removed from heap 0 / the index, still registered) to the OS. [h] is
   the lock domain whose ring records the disposal (the caller holds its
   lock). *)
let drop env h sb =
  Sb_registry.unregister env.reg sb;
  let bytes = Superblock.sb_size sb in
  env.pf.page_unmap ~addr:(Superblock.base sb);
  Alloc_stats.on_unmap env.stats ~bytes;
  Alloc_stats.note h.Heap.sh Event_ring.Sb_unmap ~sclass:(Superblock.sclass sb) ~arg:bytes

(* The paper's heap 0: a heap record like the per-processor ones, its
   Dlist fullness groups behind its lock, its remote-free channel drained
   before every refill from it. Lock order: per-processor heap, then heap
   0. *)
module Locked = struct
  type t = { env : env; h0 : Heap.t; heaps : Heap.t array }

  let heap0 g = Some g.h0

  (* Drop surplus empty superblocks. Caller holds heap 0's lock. *)
  let release_surplus g =
    while Heap_core.empty_superblock_count g.h0.core > g.env.cfg.release_threshold do
      match Heap_core.pick_victim g.h0.core ~max_fullness:0.0 with
      | None -> assert false (* the count said an empty superblock exists *)
      | Some sb -> drop g.env g.h0 sb
    done

  let take g h ~sclass ~spill =
    let h0 = g.h0 in
    (* Pending frees may hand the global heap exactly the superblock we
       are about to ask for. *)
    let detached = Heap.detach h0 in
    h0.lock.acquire ();
    ignore (Heap.drain h0 detached ~peer:(Heap.find g.heaps ~zero:(Some h0)) ~spill);
    let sb = Heap_core.take_for_class h0.core ~sclass in
    (* Flip ownership before releasing the global lock: a concurrent free
       must either see the old owner (and retry against our heap lock,
       which we hold) or block here until the handoff is complete. *)
    Option.iter (fun sb -> Superblock.set_owner sb (Heap.id h)) sb;
    h0.lock.release ();
    sb

  (* ONE heap-0 critical section covers the whole batch — insert
     everything, then a single surplus sweep. From heap 0 itself (a free
     into a global superblock, its lock held) only the sweep runs. *)
  let put g h sbs =
    if h == g.h0 then release_surplus g
    else if sbs <> [] then begin
      g.h0.lock.acquire ();
      List.iter
        (fun sb ->
          Heap_core.insert g.h0.core sb;
          Superblock.touch_header g.env.pf sb;
          Alloc_stats.note g.h0.sh Event_ring.Sb_to_global ~sclass:(Superblock.sclass sb) ~arg:(Superblock.base sb))
        sbs;
      release_surplus g;
      g.h0.lock.release ()
    end

  (* Every owner-0 block has heap 0's record to go to: nothing parks. *)
  let park _ _ items ~spill:_ ~locked:_ = assert (items = [])

  let complete _ _ ~spill:_ = ()

  let parked _ _ = 0

  let iter_parked _ _ _ = ()

  let q_take _ _ = []

  let q_free g sb ~addr = Heap_core.free g.h0.core sb addr

  let q_put g sb = Heap_core.insert g.h0.core sb

  let info g = Heap.info g.h0

  let iter_members g = Heap_core.iter g.h0.core

  let check g = Heap.check g.h0
end

(* The lock-free global heap: heap 0 has no record. Its superblocks live
   in the CAS-published fullness index, transfers are index publishes and
   claims, and a free into a global superblock parks on the freeing
   thread's heap's shard of the global-free list — one CAS, no lock. Only
   that heap's refills and flushes reclaim the shard, through the index's
   Busy handshake — or the parking thread, once the shard's bytes
   outgrow [cap] — so no single word serialises every global free. *)
module Lockfree = struct
  type t = { env : env; gi : Global_index.t; shards : Deferred_list.t array (* heap id - 1 *) }

  let heap0 _ = None

  let shard g h = g.shards.(Heap.id h - 1)

  (* Surplus release by claiming empties off the index — each take is a
     CAS, no heap-0 lock. Bounded per call (the gauge may be momentarily
     stale and another releaser may be racing us; a later trim finishes
     the job), which also keeps the loop explorable. Caller holds [h]'s
     lock (for the disposal events). *)
  let release g (h : Heap.t) =
    let budget = ref 8 in
    (* Uncharged host read of a gauge every heap updates; charging it needs a simulated word and a costed read. *)
    while !budget > 0 && Global_index.empties g.gi > g.env.cfg.release_threshold do
      decr budget;
      match Global_index.take_empty g.gi ~record:(fun kind ~arg -> Alloc_stats.note h.sh kind ~sclass:(-1) ~arg) with
      | None -> budget := 0
      | Some sb -> drop g.env h sb
    done

  (* Reclaim [h]'s shard through the index: one exchange detaches it,
     then each superblock's blocks are freed with one Busy handshake, one
     link write per run (the chain's links inside a run already are the
     free list; see [Heap.run_ends]) and a single header write inside the
     Busy window. Runs whose superblock was claimed away since the push
     are re-routed: to [spill] (the locked path, run by the caller after
     releasing [h]'s lock) when a heap owns it now, back onto the shard —
     all of them with one CAS, in chain order and with the chain's
     links, so the push writes only the links that change — when it is
     still in transit or another reclaimer holds it Busy. Caller holds
     [h]'s lock — stats and events land there. *)
  let reclaim g h ~spill =
    let pf = g.env.pf and gfl = shard g h in
    match Deferred_list.reclaim gfl with
    | [] -> ()
    | items ->
      let mine = ref 0 and requeued = ref [] in
      (* Both groupings list the superblocks in first-seen order. *)
      List.iter2
        (fun (sb, addrs) (_, ends) ->
          (* Read the size before the free: once the run empties the
             superblock, another heap may claim it and reinit it for
             another class before the charge below. *)
          let usable = Superblock.block_size sb in
          let inside () =
            List.iter (fun addr -> pf.Platform.write ~addr ~len:8) ends;
            Superblock.touch_header pf sb
          in
          match Global_index.free_run g.gi sb ~addrs ~inside with
          | Global_index.Freed { now_empty = _ } ->
            List.iter (fun _ -> Alloc_stats.on_drain h.sh ~usable) addrs;
            mine := !mine + List.length addrs
          | Global_index.Requeue | Global_index.Not_member { owner = 0 } ->
            (* Another reclaimer holds the superblock Busy, or a claim is
               in transit: hand the run back rather than spin against it. *)
            requeued := sb :: !requeued
          | Global_index.Not_member { owner = _ } ->
            List.iter
              (fun addr ->
                Alloc_stats.note h.Heap.sh Event_ring.Remote_forward ~sclass:(Superblock.sclass sb) ~arg:addr;
                spill := (sb, addr) :: !spill)
              addrs)
        (Heap.by_superblock items)
        (Heap.by_superblock (Heap.run_ends items));
      if !requeued <> [] then begin
        let back = List.filter (fun (sb, _, _) -> List.memq sb !requeued) (Deferred_list.linked items) in
        ignore (Deferred_list.push_many gfl back)
      end;
      if !mine > 0 then Alloc_stats.note h.Heap.sh Event_ring.Deferred_reclaim ~sclass:0 ~arg:!mine

  let take g h ~sclass ~spill =
    (* Pending frees may hand the index exactly the superblock we are
       about to ask for — and the reclaim is lock-free too. *)
    reclaim g h ~spill;
    match Global_index.acquire g.gi ~sclass ~record:(fun kind ~arg -> Alloc_stats.note h.Heap.sh kind ~sclass ~arg) with
    | None -> None
    | Some sb ->
      (* The claim CAS made the superblock private; a free racing the
         owner flip sees owner 0 + word Absent and parks the block on its
         heap's shard, whose next reclaim forwards it to us. *)
      Superblock.set_owner sb (Heap.id h);
      Some sb

  (* The non-blocking transfer: per privately held superblock, flip the
     owner while it is still unreachable, then one index publish — any
     fullness, never a heap-0 lock. Stats and events land on the calling
     heap's domain (the caller holds [h]'s lock); snapshot sums shards, so
     totals are unchanged. *)
  let put g h sbs =
    List.iter
      (fun sb ->
        let sclass = Superblock.sclass sb in
        Superblock.set_owner sb 0;
        Superblock.touch_header g.env.pf sb;
        Global_index.publish g.gi sb ~record:(fun kind ~arg -> Alloc_stats.note h.Heap.sh kind ~sclass ~arg);
        Alloc_stats.note h.Heap.sh Event_ring.Sb_to_global ~sclass ~arg:(Superblock.base sb))
      sbs;
    if sbs <> [] then release g h

  let complete g h ~spill =
    reclaim g h ~spill;
    release g h

  (* The most bytes a shard holds before the thread parking onto it
     completes the shard itself: eight superblocks' worth (with 8 KiB
     superblocks, 1,024 blocks of 64 B, 4,096 of 16 B or 32 of 2 KiB).
     A heap's refills and flushes are its shard's usual reclaimers, but
     a thread that only frees (the consumer of a producer/consumer pair)
     runs neither, and a heap can lose all its threads. Uncapped, their
     parked blocks stay bitmap-live and charged for good, every
     superblock a producer claims with them inside is partly unusable,
     and held memory grows with each trim and claim. Capped, at most 8·S
     bytes per heap await completion: O(P) in all, whatever the block
     size. The cap is large enough that a thread retiring a whole wave
     of objects completes long per-superblock runs, not a handshake per
     block or two, on its own critical path; counted in bytes, tiny
     blocks get as many superblocks' worth of runs as large ones. The
     byte total stands for a count carried in the head node (each push
     stores the previous total plus its chain's), so reading it costs
     nothing beyond the push's own CAS. *)
  let cap g = 8 * g.env.cfg.sb_size

  (* One CAS for the whole batch, no lock; the blocks keep their custody
     marks until a reclaim frees them. Without [locked], the shard's
     completion takes [h]'s lock and re-checks the cap under it. *)
  let rec park g h items ~spill ~locked =
    if items <> [] then ignore (Deferred_list.push_many (shard g h) items);
    (* Free after a push (the total its CAS step set); with no push, an uncharged host read. *)
    if Deferred_list.bytes (shard g h) > cap g then
      if locked then complete g h ~spill
      else begin
        h.lock.acquire ();
        park g h [] ~spill ~locked:true;
        h.lock.release ()
      end

  let parked g h = Deferred_list.length (shard g h)

  let iter_parked g h = Deferred_list.iter (shard g h)

  let q_take g h = Deferred_list.drain_quiescent (shard g h)

  let q_free g sb ~addr = Global_index.q_free g.gi sb ~addr

  let q_put g sb =
    Superblock.set_owner sb 0;
    Global_index.q_publish g.gi sb

  let info g =
    let members = Global_index.members g.gi in
    {
      Heap.heap_id = 0;
      u_bytes = Global_index.u_bytes g.gi;
      a_bytes = members * g.env.cfg.sb_size;
      superblocks = members;
      empty_superblocks = Global_index.empties g.gi;
    }

  let iter_members g = Global_index.iter_members g.gi

  (* The index structurally sound, every member owned by heap 0,
     registered and resident — membership is a transfer, never a
     release — and every parked block still custody-marked. *)
  let check g =
    Global_index.check g.gi;
    Global_index.iter_members g.gi (fun sb ->
        if Superblock.owner sb <> 0 then failwith "Hoard.check: global member not owned by heap 0";
        let base = Superblock.base sb in
        if Sb_registry.lookup g.env.reg ~addr:(base + Superblock.header_bytes) = None then
          failwith "Hoard.check: global member not registered";
        if g.env.pf.page_residency ~addr:base <> Vmem.Resident then
          failwith "Hoard.check: global member not resident");
    Array.iter Deferred_list.check g.shards
end

type t = G : (module S with type t = 'g) * 'g -> t

let create pf (cfg : Hoard_config.t) ~classes ~stats ~reg ?obs ~heaps () =
  let env = { pf; cfg; stats; reg } in
  match cfg.global with
  | Hoard_config.Locked ->
    let h0 = Heap.create pf cfg ~classes ~stats ?obs 0 in
    G ((module Locked), { Locked.env; h0; heaps })
  | Hoard_config.Lockfree ->
    let on_retry = Alloc_stats.retry_hook stats ~label:"global-free" in
    let shards =
      (* Named under heap 0's list, so per-layer accounting charges the
         shards to the global heap. *)
      Array.map
        (fun h ->
          Deferred_list.create pf
            ~name:(Printf.sprintf "hoard.dfl0.%d" (Heap.id h))
            ~lost_node:(cfg.mutant = "deferred-lost-node") ~on_retry ())
        heaps
    in
    let gi =
      Global_index.create pf ~name:"hoard.gindex" ~nclasses:(Size_class.count classes)
        ~aba_tag:(cfg.mutant <> "global-no-aba")
        ~skip_revalidate:(cfg.mutant = "global-skip-revalidate")
        ~on_retry:(Alloc_stats.retry_hook stats ~label:"global")
        ()
    in
    G ((module Lockfree), { Lockfree.env; gi; shards })

let heap0 (G ((module M), g)) = M.heap0 g
let take (G ((module M), g)) = M.take g
let put (G ((module M), g)) = M.put g
let park (G ((module M), g)) = M.park g
let complete (G ((module M), g)) = M.complete g
let parked (G ((module M), g)) = M.parked g
let iter_parked (G ((module M), g)) = M.iter_parked g
let q_take (G ((module M), g)) = M.q_take g
let q_free (G ((module M), g)) = M.q_free g
let q_put (G ((module M), g)) = M.q_put g
let info (G ((module M), g)) = M.info g
let iter_members (G ((module M), g)) = M.iter_members g
let check (G ((module M), g)) = M.check g
