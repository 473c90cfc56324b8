type region = { r_bytes : int; r_owner : int; mutable r_resident : bool }

type owner_acct = { mutable cur : int; mutable peak : int }

type residency = Resident | Decommitted | Unmapped

module Imap = Map.Make (Int)

type t = {
  backend : Vmem_backend.t;
  mutable next_addr : int;
  mutable regions : region Imap.t; (* base addr -> region: the interval index *)
  owners : (int, owner_acct) Hashtbl.t;
  mutable mapped : int;
  mutable peak : int;
  mutable resident : int;
  mutable peak_resident : int;
  mutable maps : int;
  mutable unmaps : int;
  mutable decommits : int;
  mutable commits : int;
}

let page_size = 4096

(* The first address handed out, page-aligned. *)
let base = 0x1000_0000

let create ?(backend = Vmem_backend.Exact) () =
  {
    backend = Vmem_backend.create backend;
    next_addr = base;
    regions = Imap.empty;
    owners = Hashtbl.create 16;
    mapped = 0;
    peak = 0;
    resident = 0;
    peak_resident = 0;
    maps = 0;
    unmaps = 0;
    decommits = 0;
    commits = 0;
  }

let backend_kind t = t.backend.Vmem_backend.be_kind

let round_up x align = (x + align - 1) land lnot (align - 1)

let owner_acct t owner =
  match Hashtbl.find_opt t.owners owner with
  | Some a -> a
  | None ->
    let a = { cur = 0; peak = 0 } in
    Hashtbl.replace t.owners owner a;
    a

let map t ?(owner = 0) ~bytes ~align () =
  if bytes <= 0 then invalid_arg "Vmem.map: bytes must be positive";
  if align < page_size || align land (align - 1) <> 0 then
    invalid_arg "Vmem.map: align must be a power of two >= page_size";
  let bytes = round_up bytes page_size in
  let addr =
    match t.backend.Vmem_backend.take ~bytes ~align with
    | Some addr -> addr
    | None ->
      (* Extend the bump frontier; the alignment gap is not lost — the
         backend gets it, so later maps may carve it (policy permitting)
         and the conservation invariant stays exact. *)
      let addr = round_up t.next_addr align in
      if addr > t.next_addr then t.backend.Vmem_backend.give ~addr:t.next_addr ~bytes:(addr - t.next_addr);
      t.next_addr <- addr + bytes;
      addr
  in
  t.regions <- Imap.add addr { r_bytes = bytes; r_owner = owner; r_resident = true } t.regions;
  t.mapped <- t.mapped + bytes;
  if t.mapped > t.peak then t.peak <- t.mapped;
  t.resident <- t.resident + bytes;
  if t.resident > t.peak_resident then t.peak_resident <- t.resident;
  let acct = owner_acct t owner in
  acct.cur <- acct.cur + bytes;
  if acct.cur > acct.peak then acct.peak <- acct.cur;
  t.maps <- t.maps + 1;
  addr

let unmap t ~addr =
  match Imap.find_opt addr t.regions with
  | None -> invalid_arg "Vmem.unmap: not a live region base"
  | Some r ->
    t.regions <- Imap.remove addr t.regions;
    t.mapped <- t.mapped - r.r_bytes;
    if r.r_resident then t.resident <- t.resident - r.r_bytes;
    let acct = owner_acct t r.r_owner in
    acct.cur <- acct.cur - r.r_bytes;
    t.unmaps <- t.unmaps + 1;
    t.backend.Vmem_backend.give ~addr ~bytes:r.r_bytes

let decommit t ~addr =
  match Imap.find_opt addr t.regions with
  | None -> invalid_arg "Vmem.decommit: not a live region base"
  | Some r ->
    if r.r_resident then begin
      r.r_resident <- false;
      t.resident <- t.resident - r.r_bytes;
      t.decommits <- t.decommits + 1
    end

let commit t ~addr =
  match Imap.find_opt addr t.regions with
  | None -> invalid_arg "Vmem.commit: not a live region base"
  | Some r ->
    if not r.r_resident then begin
      r.r_resident <- true;
      t.resident <- t.resident + r.r_bytes;
      if t.resident > t.peak_resident then t.peak_resident <- t.resident;
      t.commits <- t.commits + 1
    end

let region_size t ~addr =
  match Imap.find_opt addr t.regions with
  | None -> None
  | Some r -> Some r.r_bytes

(* The region covering [addr], found by the interval index: the live
   region with the greatest base <= addr, if [addr] falls inside it.
   O(log n) regardless of region sizes. *)
let covering t addr =
  match Imap.find_last_opt (fun base -> base <= addr) t.regions with
  | Some (base, r) when addr < base + r.r_bytes -> Some r
  | _ -> None

let is_mapped t ~addr = Option.is_some (covering t addr)

let residency t ~addr =
  match covering t addr with
  | None -> Unmapped
  | Some r -> if r.r_resident then Resident else Decommitted

let is_resident t ~addr = residency t ~addr = Resident

let mapped_bytes t = t.mapped

let peak_bytes t = t.peak

let resident_bytes t = t.resident

let peak_resident_bytes t = t.peak_resident

let address_space_bytes t = t.next_addr - base

let mapped_bytes_of_owner t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> 0
  | Some a -> a.cur

let peak_bytes_of_owner t owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> 0
  | Some a -> a.peak

let map_count t = t.maps

let unmap_count t = t.unmaps

let decommit_count t = t.decommits

let commit_count t = t.commits

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let live = ref 0 and res = ref 0 and prev_end = ref min_int in
  let by_owner = Hashtbl.create 16 in
  Imap.iter
    (fun addr r ->
      if addr land (page_size - 1) <> 0 then fail "Vmem.check: region %#x not page-aligned" addr;
      if r.r_bytes <= 0 || r.r_bytes land (page_size - 1) <> 0 then
        fail "Vmem.check: region %#x has bad size %d" addr r.r_bytes;
      if addr < !prev_end then fail "Vmem.check: overlapping regions at %#x" addr;
      prev_end := addr + r.r_bytes;
      live := !live + r.r_bytes;
      if r.r_resident then res := !res + r.r_bytes;
      Hashtbl.replace by_owner r.r_owner
        (r.r_bytes + Option.value (Hashtbl.find_opt by_owner r.r_owner) ~default:0))
    t.regions;
  if !live <> t.mapped then fail "Vmem.check: region total %d <> mapped %d" !live t.mapped;
  if !res <> t.resident then fail "Vmem.check: resident total %d <> resident %d" !res t.resident;
  if t.resident > t.mapped then fail "Vmem.check: resident %d > mapped %d" t.resident t.mapped;
  Hashtbl.iter
    (fun owner acct ->
      let want = Option.value (Hashtbl.find_opt by_owner owner) ~default:0 in
      if acct.cur <> want then fail "Vmem.check: owner %d accounted %d <> region total %d" owner acct.cur want)
    t.owners;
  t.backend.Vmem_backend.check ();
  let free = t.backend.Vmem_backend.free_bytes () in
  if free + !live <> t.next_addr - base then
    fail "Vmem.check: free %d + live %d <> address space %d (leaked or double-counted bytes)" free !live
      (t.next_addr - base)
