(* Lock-free MPSC cache of large (> S/2) regions, sitting in front of
   {!Locked_large}'s OS path: instead of a map/unmap round trip per large
   object, a freed region is parked — decommitted but still mapped — in a
   bucket keyed by its page count, and a later allocation of the same
   page count takes it back with pop → commit. Buckets are bounded
   {!Lockfree} stacks (each alone in its pool), so park and take are
   pure CAS protocols shared by any number of producers; overflow
   (bucket full) and oversized regions fall back to the seed unmap/map
   path.

   A bucket's pool is built on the bucket's first park or take, so a run
   pays only for the page counts it uses. Its atomics ("<name>.b<pages>"
   then ".next<i>", ".free", ".head") take the next cache lines when
   they are built; the first costed access to each is the one it would
   have been on a pool built up front, on a line no processor has
   touched either way, so no simulated cost moves. Building runs under a
   host mutex and publishes through the bucket's host atomic, so racing
   first users build one pool between them.

   Residency discipline: the region is decommitted *before* the push publishes it (while still private), so
   no interleaving can observe a parked-but-resident region; a take
   commits *after* the pop made the region private again. Parked
   regions stay mapped, hence charged to held — the blowup envelope's
   slop grows by the cache's capacity — while residency drops, keeping
   resident <= held intact. *)

type t = {
  pf : Platform.t;
  name : string;
  page_size : int;
  bucket_cap : int; (* >= 1 *)
  aba_tag : bool;
  on_retry : (unit -> unit) option;
  mu : Mutex.t; (* host mutex: serialises bucket builds, zero simulated cost *)
  buckets : int Lockfree.t option Atomic.t array; (* bucket i holds regions of exactly (i+1) pages *)
}

let nbuckets = 16

let create (pf : Platform.t) ~name ~cap ?(aba_tag = true) ?on_retry () =
  if cap < 1 then invalid_arg "Large_cache.create: cap must be >= 1";
  {
    pf;
    name;
    page_size = pf.Platform.page_size;
    bucket_cap = cap;
    aba_tag;
    on_retry;
    mu = Mutex.create ();
    buckets = Array.init nbuckets (fun _ -> Atomic.make None);
  }

(* Bucket [i], built on first use. *)
let bucket t i =
  match Atomic.get t.buckets.(i) with
  | Some b -> b
  | None ->
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        match Atomic.get t.buckets.(i) with
        | Some b -> b
        | None ->
          let b =
            Lockfree.create t.pf ~name:(Printf.sprintf "%s.b%d" t.name (i + 1)) ~cap:t.bucket_cap
              ~aba_tag:t.aba_tag ?on_retry:t.on_retry ()
          in
          Atomic.set t.buckets.(i) (Some b);
          b)

(* The buckets built so far, with their indices. *)
let iter_built t f = Array.iteri (fun i b -> Option.iter (f i) (Atomic.get b)) t.buckets

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
    if Lockfree.push (bucket t i) addr then `Parked else `Bounced

(* Take a region of exactly [mapped] bytes: the pop privatises it, the
   commit brings its pages back. *)
let take t ~mapped =
  match bucket_of t ~mapped with
  | None -> None
  | Some i ->
    (match Lockfree.pop (bucket t i) with
     | None -> None
     | Some addr ->
       t.pf.Platform.page_commit ~addr;
       Some addr)

let sum_built t f = Array.fold_left (fun acc b -> acc + Option.fold ~none:0 ~some:f (Atomic.get b)) 0 t.buckets

let length t = sum_built t Lockfree.length

let parks t = sum_built t Lockfree.pushes

let iter t f = iter_built t (fun i b -> Lockfree.iter b (fun addr -> f ~addr ~mapped:((i + 1) * t.page_size)))

(* Quiescent structural + residency check: every parked region must be
   a mapped region of exactly its bucket's size (a take hands it out for
   that size) and decommitted (a resident parked region is the
   park-ordering bug), buckets within capacity, stacks uncorrupted
   (Lockfree.iter fails on the ABA-loss signatures). *)
let check t =
  iter_built t
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
