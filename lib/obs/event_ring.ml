type kind =
  | Sb_map
  | Sb_unmap
  | Sb_from_global
  | Sb_to_global
  | Emptiness_cross
  | Remote_free
  | Large_map
  | Large_unmap
  | Lock_acquire
  | Cache_hit
  | Cache_flush
  | Remote_enqueue
  | Remote_drain
  | Decommit
  | Recommit
  | Remote_forward
  | Req_arrival
  | Req_done
  | Large_cache_hit
  | Deferred_enqueue
  | Deferred_reclaim
  | Orphan_adopt
  | Global_push
  | Global_pop
  | Global_revalidate
  | Global_busy_miss

(* The one table of kinds: a kind's position is the index a ring stores,
   its string the export name. Every other view of the kinds derives
   from it. *)
let table =
  [|
    (Sb_map, "sb_map");
    (Sb_unmap, "sb_unmap");
    (Sb_from_global, "sb_from_global");
    (Sb_to_global, "sb_to_global");
    (Emptiness_cross, "emptiness_cross");
    (Remote_free, "remote_free");
    (Large_map, "large_map");
    (Large_unmap, "large_unmap");
    (Lock_acquire, "lock_acquire");
    (Cache_hit, "cache_hit");
    (Cache_flush, "cache_flush");
    (Remote_enqueue, "remote_enqueue");
    (Remote_drain, "remote_drain");
    (Decommit, "decommit");
    (Recommit, "recommit");
    (Remote_forward, "remote_forward");
    (Req_arrival, "req_arrival");
    (Req_done, "req_done");
    (Large_cache_hit, "large_cache_hit");
    (Deferred_enqueue, "deferred_enqueue");
    (Deferred_reclaim, "deferred_reclaim");
    (Orphan_adopt, "orphan_adopt");
    (Global_push, "global_push");
    (Global_pop, "global_pop");
    (Global_revalidate, "global_revalidate");
    (Global_busy_miss, "global_busy_miss");
  |]

let all_kinds = Array.to_list (Array.map fst table)

let nkinds = Array.length table

let kind_index k =
  let rec find i = if fst table.(i) == k then i else find (i + 1) in
  find 0

let kind_of_index i =
  if i < 0 || i >= nkinds then invalid_arg (Printf.sprintf "Event_ring.kind_of_index: %d" i);
  fst table.(i)

let kind_name k = snd table.(kind_index k)

type event = { at : int; kind : kind; who : int; heap : int; sclass : int; arg : int }

(* Struct-of-arrays so that recording an event is five plain int stores and
   never allocates: the contract is the same as an [Alloc_stats] shard —
   every [record] happens under the lock of the ring's domain. *)
type t = {
  cap : int;
  e_at : int array;
  e_kind : int array;
  e_who : int array;
  e_heap : int array;
  e_sclass : int array;
  e_arg : int array;
  counts : int array; (* per-kind totals, exact even after wrap-around *)
  mutable n : int; (* total events ever recorded *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Event_ring.create: capacity must be >= 1";
  {
    cap = capacity;
    e_at = Array.make capacity 0;
    e_kind = Array.make capacity 0;
    e_who = Array.make capacity 0;
    e_heap = Array.make capacity 0;
    e_sclass = Array.make capacity 0;
    e_arg = Array.make capacity 0;
    counts = Array.make nkinds 0;
    n = 0;
  }

let capacity t = t.cap

let record t ~at ~kind ~who ~heap ~sclass ~arg =
  let i = t.n mod t.cap in
  t.e_at.(i) <- at;
  let k = kind_index kind in
  t.e_kind.(i) <- k;
  t.e_who.(i) <- who;
  t.e_heap.(i) <- heap;
  t.e_sclass.(i) <- sclass;
  t.e_arg.(i) <- arg;
  t.counts.(k) <- t.counts.(k) + 1;
  t.n <- t.n + 1

let recorded t = t.n

let dropped t = max 0 (t.n - t.cap)

let retained t = min t.n t.cap

let recorded_kind t kind = t.counts.(kind_index kind)

let event_at t i =
  {
    at = t.e_at.(i);
    kind = kind_of_index t.e_kind.(i);
    who = t.e_who.(i);
    heap = t.e_heap.(i);
    sclass = t.e_sclass.(i);
    arg = t.e_arg.(i);
  }

(* Oldest retained event first. *)
let iter t f =
  let len = retained t in
  let start = if t.n <= t.cap then 0 else t.n mod t.cap in
  for k = 0 to len - 1 do
    f (event_at t ((start + k) mod t.cap))
  done

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc
