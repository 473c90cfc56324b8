(* Lock-free MPSC cache of large (> S/2) regions, sitting in front of
   {!Locked_large}'s OS path: instead of a map/unmap round trip per large
   object, a freed region is parked — decommitted but still mapped — in a
   bucket keyed by its page count, and a later allocation of the same
   page count takes it back with pop → commit. Buckets are bounded
   {!Lockfree} stacks (each alone in its pool), so park and take are
   pure CAS protocols shared by any number of producers; overflow
   (bucket full) and oversized regions fall back to the seed unmap/map
   path.

   Residency discipline: the region is decommitted *before* the push publishes it (while still private), so
   no interleaving can observe a parked-but-resident region; a take
   commits *after* the pop made the region private again. Parked
   regions stay mapped, hence charged to held — the blowup envelope's
   slop grows by the cache's capacity — while residency drops, keeping
   resident <= held intact. *)

type t = {
  pf : Platform.t;
  page_size : int;
  bucket_cap : int; (* >= 1 *)
  buckets : int Lockfree.t array; (* bucket i holds regions of exactly (i+1) pages *)
}

let nbuckets = 16

let create (pf : Platform.t) ~name ~cap ?(aba_tag = true) ?on_retry () =
  if cap < 1 then invalid_arg "Large_cache.create: cap must be >= 1";
  {
    pf;
    page_size = pf.Platform.page_size;
    bucket_cap = cap;
    buckets =
      Array.init nbuckets (fun i ->
          Lockfree.create pf ~name:(Printf.sprintf "%s.b%d" name (i + 1)) ~cap ~aba_tag ?on_retry ());
  }

let bucket_of t ~mapped =
  if mapped <= 0 || mapped mod t.page_size <> 0 then None
  else
    let pages = mapped / t.page_size in
    if pages <= nbuckets then Some (pages - 1) else None

(* Park a privately-owned mapped region: decommit first, publish second.
   [`Bounced] means the bucket was full — the region is still the
   caller's, already decommitted, and must be unmapped. *)
let park t ~addr ~mapped =
  match bucket_of t ~mapped with
  | None -> `Uncacheable
  | Some i ->
    t.pf.Platform.page_decommit ~addr;
    if Lockfree.push t.buckets.(i) addr then `Parked else `Bounced

(* Take a region of exactly [mapped] bytes: the pop privatises it, the
   commit brings its pages back. *)
let take t ~mapped =
  match bucket_of t ~mapped with
  | None -> None
  | Some i ->
    (match Lockfree.pop t.buckets.(i) with
     | None -> None
     | Some addr ->
       t.pf.Platform.page_commit ~addr;
       Some addr)

let length t = Array.fold_left (fun acc b -> acc + Lockfree.length b) 0 t.buckets

let parks t = Array.fold_left (fun acc b -> acc + Lockfree.pushes b) 0 t.buckets

let iter t f =
  Array.iteri (fun i b -> Lockfree.iter b (fun addr -> f ~addr ~mapped:((i + 1) * t.page_size))) t.buckets

(* Quiescent structural + residency check: every parked region must be
   a mapped region of exactly its bucket's size (a take hands it out for
   that size) and decommitted (a resident parked region is the
   park-ordering bug), buckets within capacity, stacks uncorrupted
   (Lockfree.iter fails on the ABA-loss signatures). *)
let check t =
  Array.iteri
    (fun i b ->
      if Lockfree.length b > t.bucket_cap then
        failwith (Printf.sprintf "Large_cache: bucket %d over capacity (%d > %d)" (i + 1) (Lockfree.length b) t.bucket_cap);
      Lockfree.iter b (fun addr ->
          match t.pf.Platform.region_bytes ~addr with
          | None -> failwith (Printf.sprintf "Large_cache: parked region %#x not mapped" addr)
          | Some bytes when bytes <> (i + 1) * t.page_size ->
            failwith (Printf.sprintf "Large_cache: parked region %#x maps %d B in the %d-page bucket" addr bytes (i + 1))
          | Some _ ->
            if t.pf.Platform.page_residency ~addr <> Vmem.Decommitted then
              failwith (Printf.sprintf "Large_cache: parked region %#x still resident" addr)))
    t.buckets
