(* Lock-striped registry. Superblocks are S-aligned, so [addr / S] names a
   slot; slots hash across power-of-two stripes. Writers (register /
   unregister, superblock-granularity events next to a page_map) serialise
   on their stripe's platform lock and publish the stripe's slot map
   through an Atomic, so the lookup on every [free] is wait-free: no lock
   word bounces between processors on the hot path. *)

module Slot_map = Map.Make (Int)

type stripe = { lock : Platform.lock; map : Superblock.t Slot_map.t Atomic.t }

type t = { size : int; mask : int; stripes : stripe array }

let stripes = 64

let create pf ~sb_size =
  if sb_size <= 0 || sb_size land (sb_size - 1) <> 0 then
    invalid_arg "Sb_registry.create: sb_size must be a positive power of two";
  {
    size = sb_size;
    mask = stripes - 1;
    stripes =
      Array.init stripes (fun i ->
          { lock = pf.Platform.new_lock (Printf.sprintf "sbreg.s%d" i); map = Atomic.make Slot_map.empty });
  }

let sb_size t = t.size

let slot t addr = addr / t.size

let stripe_for t key = t.stripes.(key land t.mask)

let register t sb =
  let key = slot t (Superblock.base sb) in
  let st = stripe_for t key in
  st.lock.acquire ();
  let m = Atomic.get st.map in
  let dup = Slot_map.mem key m in
  if not dup then Atomic.set st.map (Slot_map.add key sb m);
  st.lock.release ();
  if dup then invalid_arg "Sb_registry.register: slot already occupied"

let unregister t sb =
  let key = slot t (Superblock.base sb) in
  let st = stripe_for t key in
  st.lock.acquire ();
  Atomic.set st.map (Slot_map.remove key (Atomic.get st.map));
  st.lock.release ()

let lookup t ~addr =
  let key = slot t addr in
  Slot_map.find_opt key (Atomic.get (stripe_for t key).map)

let count t = Array.fold_left (fun acc st -> acc + Slot_map.cardinal (Atomic.get st.map)) 0 t.stripes

let iter t f = Array.iter (fun st -> Slot_map.iter (fun _ sb -> f sb) (Atomic.get st.map)) t.stripes
