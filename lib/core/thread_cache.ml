module IntMap = Map.Make (Int)

type cache = {
  front : t;
  (* Per class, newest first: each block with the link its free wrote
     into its first word, the address of the class's top block at that
     moment; 0 when the class was empty or a fill pushed the block
     without writing it. *)
  slots : (Superblock.t * int * int) list array;
  count : int array;
  sh : Alloc_stats.shard; (* single writer: the owning thread; carries its ring when tracing *)
  mutable domain : int; (* the domain driving the cache, -1 until [mine] arms it *)
}

and t = {
  pf : Platform.t;
  caps : int array; (* per class, see [class_cap] *)
  stats : Alloc_stats.t;
  obs : Obs.t option;
  home : unit -> int;
  surrender : cache -> (Superblock.t * int * int) list -> unit;
  caches : cache IntMap.t Atomic.t; (* tid -> cache; replaced under [mu] *)
  mu : Mutex.t; (* host mutex: serialises cache creation, zero simulated cost *)
  creator : int; (* domain that built [t]; its threads skip at-exit hooks *)
}

let class_cap ~fe ~block_size = max fe (fe * 16 / block_size)

let create pf ~front_end ~classes ~stats ?obs ~home ~surrender () =
  {
    pf;
    caps = Array.map (fun block_size -> class_cap ~fe:front_end ~block_size) (Size_class.sizes classes);
    stats;
    obs;
    home;
    surrender;
    caches = Atomic.make IntMap.empty;
    mu = Mutex.create ();
    creator = (Domain.self () :> int);
  }

(* The one loop that takes blocks out of a cache in bulk: cut class
   [sclass] down to its newest [keep] blocks and return the rest, newest
   first, each with its link, noted as one flush. The quiescent drain
   passes [~note:false]: it is no flush by a running thread, and an
   event reads the clock, a platform effect. *)
let cut ?(note = true) c ~sclass ~keep =
  let n = c.count.(sclass) - keep in
  if n <= 0 then []
  else begin
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> split (k - 1) (x :: acc) tl
    in
    let kept, out = split keep [] c.slots.(sclass) in
    c.slots.(sclass) <- kept;
    c.count.(sclass) <- keep;
    if note then Alloc_stats.note c.sh Event_ring.Cache_flush ~n ~sclass ~arg:n;
    out
  end

let take_class c ~sclass = cut c ~sclass ~keep:0

(* Every class cut to nothing: classes ascending, each newest first. *)
let take_all ?note c = List.concat (List.init (Array.length c.slots) (fun sclass -> cut ?note c ~sclass ~keep:0))

(* Empty a whole cache into [surrender] (thread exit, explicit flush). *)
let empty c =
  match take_all c with
  | [] -> ()
  | all -> c.front.surrender c all

let find t tid = IntMap.find_opt tid (Atomic.get t.caches)

(* A new cache for [tid], with no domain yet: [mine] arms it. *)
let fresh t tid =
  let sh = Alloc_stats.add_shard t.stats in
  Option.iter
    (fun o ->
      let name = Printf.sprintf "tcache%d" tid in
      (* Thread ids can be recycled across sequential domains; the
         successor inherits the name's ring. *)
      let ring = match Obs.find_ring o name with Some r -> r | None -> Obs.new_ring o name in
      Alloc_stats.attach_ring sh ring t.pf ~heap:t.home)
    t.obs;
  let nclasses = Array.length t.caps in
  { front = t; slots = Array.make nclasses []; count = Array.make nclasses 0; sh; domain = -1 }

(* The fast path is one map read. The first call of a tid, and the first
   from each new domain driving it, take [mu]: the cache is created, or
   adopted. [Domain.at_exit] hooks belong to the registering domain, so
   a cache surviving its domain (recycled thread id: domain A exits,
   domain B is assigned the same tid) must re-arm the exit flush ON the
   adopting domain — registering only at creation silently dropped every
   later domain's flush, leaking its cached blocks. Simulated threads
   share the creator domain and are drained at quiescence instead. *)
let mine t =
  let tid = t.pf.Platform.self_tid () and did = (Domain.self () :> int) in
  match find t tid with
  | Some c when c.domain = did -> c
  | _ ->
    Mutex.lock t.mu;
    let c =
      match find t tid with
      | Some c -> c
      | None ->
        let c = fresh t tid in
        Atomic.set t.caches (IntMap.add tid c (Atomic.get t.caches));
        c
    in
    if c.domain <> did then begin
      c.domain <- did;
      if did <> t.creator then Domain.at_exit (fun () -> empty c)
    end;
    Mutex.unlock t.mu;
    c

let pop c ~size ~sclass =
  match c.slots.(sclass) with
  | [] -> None
  | (sb, addr, _) :: rest ->
    c.slots.(sclass) <- rest;
    c.count.(sclass) <- c.count.(sclass) - 1;
    Superblock.clear_cached sb addr;
    Alloc_stats.on_cache_hit c.sh ~requested:size;
    Alloc_stats.note c.sh Event_ring.Cache_hit ~sclass ~arg:addr;
    c.front.pf.Platform.write ~addr ~len:8;
    Some addr

let add c ~sclass sb addr ~link =
  Superblock.mark_cached sb addr;
  c.slots.(sclass) <- (sb, addr, link) :: c.slots.(sclass);
  c.count.(sclass) <- c.count.(sclass) + 1

(* The eviction keeps the newest half, unless [surrender] takes it too
   ([take_class]), so the top it links to is the top the free's write
   stores after the surrender: 0 when the class is left empty. *)
let push c ~sclass sb addr =
  let t = c.front in
  if c.count.(sclass) >= t.caps.(sclass) then t.surrender c (cut c ~sclass ~keep:(t.caps.(sclass) / 2));
  add c ~sclass sb addr ~link:(match c.slots.(sclass) with (_, top, _) :: _ -> top | [] -> 0)

let fill c ~sclass blocks = List.iter (fun (addr, sb) -> add c ~sclass sb addr ~link:0) blocks

let fill_size c ~sclass = c.front.caps.(sclass) / 2

let shard c = c.sh

let flush t = Option.iter empty (find t (t.pf.Platform.self_tid ()))

let retire t =
  let tid = t.pf.Platform.self_tid () in
  match find t tid with
  | Some c ->
    empty c;
    Mutex.lock t.mu;
    Atomic.set t.caches (IntMap.remove tid (Atomic.get t.caches));
    Mutex.unlock t.mu
  | None -> ()

let drain_quiescent t f =
  IntMap.iter (fun _ c -> List.iter (fun (sb, addr, _) -> f sb addr) (take_all ~note:false c)) (Atomic.get t.caches)

let counts t = List.rev (IntMap.fold (fun tid c acc -> (tid, Array.copy c.count) :: acc) (Atomic.get t.caches) [])

let check t =
  IntMap.iter
    (fun tid c ->
      Array.iteri
        (fun sclass blocks ->
          let n = List.length blocks in
          if n <> c.count.(sclass) || n > t.caps.(sclass) then
            failwith
              (Printf.sprintf "Hoard.check: thread %d caches %d blocks of class %d (count %d, cap %d)" tid n sclass
                 c.count.(sclass) t.caps.(sclass));
          List.iter (fun (sb, addr, _) -> Superblock.check_in_custody ~what:"cached" sb addr) blocks;
          let rec links = function
            | (_, addr, link) :: ((_, below, _) :: _ as rest) ->
              if link <> 0 && link <> below then
                failwith
                  (Printf.sprintf "Hoard.check: thread %d caches %#x of class %d linked to %#x, not to %#x below it"
                     tid addr sclass link below);
              links rest
            | [ _ ] | [] -> ()
          in
          links blocks)
        c.slots)
    (Atomic.get t.caches)
