(* The large-object path shared by every allocator implementation:
   requests above the size threshold bypass the superblock machinery and
   are served directly from the OS, page-rounded, as in the paper. One
   lock guards the object table and its stats shard, with the shard's
   event ring. *)

type entry = { usable : int; mapped : int }

type t = {
  pf : Platform.t;
  owner : int;
  stats : Alloc_stats.t;
  sh : Alloc_stats.shard; (* lock domain: [lock], its ring's too *)
  table : (int, entry) Hashtbl.t;
  mutable live_b : int;
  lock : Platform.lock;
  threshold : int;
  cache : Large_cache.t option;
}

let create ?shard ?ring ?cache pf ~owner ~stats ~threshold =
  let shard_idx =
    match shard with
    | Some i -> i
    | None -> Alloc_stats.nshards stats - 1
  in
  let sh = Alloc_stats.shard stats shard_idx in
  Option.iter (fun r -> Alloc_stats.attach_ring sh r pf ~heap:(fun () -> -1)) ring;
  {
    pf;
    owner;
    stats;
    sh;
    table = Hashtbl.create 64;
    live_b = 0;
    lock = pf.Platform.new_lock "large";
    threshold;
    cache;
  }

let is_large t size = size > t.threshold

let round_up x align = (x + align - 1) / align * align

(* Note an event on the shard; caller holds the lock. *)
let note t kind arg = Alloc_stats.note t.sh kind ~sclass:(-1) ~arg

(* Ring writes share the table lock's domain, but the cache protocol runs
   outside it — so a park's Decommit / Large_unmap trace entries are
   recorded in a tiny dedicated critical section, and only when a ring
   exists at all. They are recorded, not counted: their totals are the
   [decommits] and [os_unmaps] atomics. *)
let record_locked t kinds arg =
  if Option.is_some (Alloc_stats.ring t.sh) then begin
    t.lock.acquire ();
    List.iter (fun kind -> Alloc_stats.record t.sh kind ~sclass:(-1) ~arg) kinds;
    t.lock.release ()
  end

(* Map fresh pages under the lock. *)
let from_os t size =
  if size <= 0 then invalid_arg "Locked_large.malloc: size must be positive";
  t.lock.acquire ();
  let usable = round_up size 8 in
  let mapped = round_up size t.pf.Platform.page_size in
  let addr = t.pf.Platform.page_map ~bytes:mapped ~align:t.pf.Platform.page_size ~owner:t.owner in
  Hashtbl.replace t.table addr { usable; mapped };
  Alloc_stats.on_map t.stats ~bytes:mapped;
  Alloc_stats.on_malloc t.sh ~requested:size ~usable;
  note t Event_ring.Large_map mapped;
  t.live_b <- t.live_b + usable;
  t.lock.release ();
  addr

(* The cache hit path: pop + commit outside the lock (pure CAS protocol,
   shared by all threads), then the table insert under it — the pages
   are already mapped (held never changed while the region was parked),
   so there is no OS-map accounting. A miss — or a disabled/unsuitable
   cache — pays the OS map. *)
let malloc t size =
  match t.cache with
  | None -> from_os t size
  | Some c ->
    if size <= 0 then from_os t size
    else begin
      let mapped = round_up size t.pf.Platform.page_size in
      match Large_cache.take c ~mapped with
      | None -> from_os t size
      | Some addr ->
        Alloc_stats.on_recommit t.stats ~bytes:mapped;
        t.lock.acquire ();
        let usable = round_up size 8 in
        Hashtbl.replace t.table addr { usable; mapped };
        Alloc_stats.on_malloc t.sh ~requested:size ~usable;
        note t Event_ring.Recommit mapped;
        note t Event_ring.Large_cache_hit mapped;
        t.live_b <- t.live_b + usable;
        t.lock.release ();
        addr
    end

(* Remove [addr]'s entry and count the free, without touching the pages.
   Caller holds the lock. *)
let remove t ~addr =
  let found = Hashtbl.find_opt t.table addr in
  (match found with
   | None -> ()
   | Some { usable; _ } ->
     Hashtbl.remove t.table addr;
     Alloc_stats.on_free t.sh ~usable;
     t.live_b <- t.live_b - usable);
  found

(* Without a cache the unmap happens under the lock. With one, the table
   removal (and the free counters) happen under the lock while the region
   is still accounted; the park itself — decommit, then one CAS — runs
   outside it. A bounce (bucket full) or an uncacheable size falls back to
   the seed unmap. Parked regions stay mapped, so held is untouched and
   only residency drops. *)
let try_free t ~addr =
  t.lock.acquire ();
  let found = remove t ~addr in
  match (t.cache, found) with
  | _, None ->
    t.lock.release ();
    false
  | None, Some { mapped; _ } ->
    t.pf.Platform.page_unmap ~addr;
    Alloc_stats.on_unmap t.stats ~bytes:mapped;
    note t Event_ring.Large_unmap mapped;
    t.lock.release ();
    true
  | Some c, Some { mapped; _ } ->
    t.lock.release ();
    (match Large_cache.park c ~addr ~mapped with
     | `Parked ->
       Alloc_stats.on_decommit t.stats ~bytes:mapped;
       record_locked t [ Event_ring.Decommit ] mapped
     | `Bounced ->
       (* The push lost to a full bucket: the region is ours again,
          already decommitted — return it to the OS without debiting
          residency twice. *)
       t.pf.Platform.page_unmap ~addr;
       Alloc_stats.on_decommit t.stats ~bytes:mapped;
       Alloc_stats.on_unmap ~resident:false t.stats ~bytes:mapped;
       record_locked t [ Event_ring.Decommit; Event_ring.Large_unmap ] mapped
     | `Uncacheable ->
       t.pf.Platform.page_unmap ~addr;
       Alloc_stats.on_unmap t.stats ~bytes:mapped;
       record_locked t [ Event_ring.Large_unmap ] mapped);
    true

let usable_size t ~addr =
  (* The table is mutated under [t.lock]; an unlocked read could observe a
     Hashtbl mid-resize. *)
  t.lock.acquire ();
  let r = Option.map (fun e -> e.usable) (Hashtbl.find_opt t.table addr) in
  t.lock.release ();
  r

let live_count t = Hashtbl.length t.table

let live_bytes t = t.live_b

let cache t = t.cache
