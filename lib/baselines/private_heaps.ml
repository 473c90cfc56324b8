let sb_size = 8192

type policy = {
  label : string;
  description : string;
  table_lock_name : string;
  path_work : int;
  threshold : int option;
      (* [Some t]: a free that takes a class list past [t] blocks moves all
         but [t/2] to the class's locked pool; [None]: lists grow unbounded *)
}

type pheap = {
  free_lists : int list array; (* per class: stack of free block addresses *)
  counts : int array; (* per class: length of the free list *)
  current : Superblock.t option array; (* per class: superblock being carved *)
  mutable free_bytes : int;
}

type pool = { lock : Platform.lock; mutable blocks : int list; mutable count : int }

type t = {
  pf : Platform.t;
  p : policy;
  classes : Size_class.t;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  sh : Alloc_stats.shard; (* shard 0: small-path events; thread-private heaps are sim-only *)
  owner : int;
  large : Locked_large.t;
  heaps : (int, pheap) Hashtbl.t; (* tid -> heap *)
  table_lock : Platform.lock;
  pools : pool array; (* per class; empty without a threshold *)
}

let of_policy p pf =
  let classes = Size_class.create ~max_small:(sb_size / 2) () in
  let stats = Alloc_stats.create ~shards:2 () in
  let owner = Alloc_intf.next_owner () in
  (* Each lock word's simulated address follows creation order: the pool
     locks, the heap-table lock, the large path's lock, then the
     registry's stripes. *)
  let pools =
    match p.threshold with
    | None -> [||]
    | Some _ ->
      Array.init (Size_class.count classes) (fun i ->
          { lock = pf.Platform.new_lock (Printf.sprintf "threshold.pool%d" i); blocks = []; count = 0 })
  in
  let table_lock = pf.Platform.new_lock p.table_lock_name in
  let large = Locked_large.create pf ~owner ~stats ~shard:1 ~threshold:(sb_size / 2) in
  let reg = Sb_registry.create pf ~sb_size in
  {
    pf;
    p;
    classes;
    reg;
    stats;
    sh = Alloc_stats.shard stats 0;
    owner;
    large;
    heaps = Hashtbl.create 32;
    table_lock;
    pools;
  }

let my_heap t =
  let tid = t.pf.Platform.self_tid () in
  match Hashtbl.find_opt t.heaps tid with
  | Some h -> h
  | None ->
    t.table_lock.acquire ();
    let h =
      match Hashtbl.find_opt t.heaps tid with
      | Some h -> h
      | None ->
        let n = Size_class.count t.classes in
        let h = { free_lists = Array.make n []; counts = Array.make n 0; current = Array.make n None; free_bytes = 0 } in
        Hashtbl.replace t.heaps tid h;
        h
    in
    t.table_lock.release ();
    h

(* Move all but [threshold/2] blocks of an overflowing class list to the
   class's pool. *)
let flush_excess t h ~threshold sclass block_size =
  let keep = threshold / 2 in
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (n - 1) (x :: acc) rest
  in
  let kept, excess = split keep [] h.free_lists.(sclass) in
  let n_excess = h.counts.(sclass) - keep in
  h.free_lists.(sclass) <- kept;
  h.counts.(sclass) <- keep;
  h.free_bytes <- h.free_bytes - (n_excess * block_size);
  let pool = t.pools.(sclass) in
  pool.lock.acquire ();
  pool.blocks <- List.rev_append excess pool.blocks;
  pool.count <- pool.count + n_excess;
  pool.lock.release ()

(* Refill up to [threshold/2] blocks from the class's pool. *)
let refill_from_pool t h ~threshold sclass block_size =
  let want = threshold / 2 in
  let pool = t.pools.(sclass) in
  pool.lock.acquire ();
  let rec take n acc = function
    | rest when n = 0 -> (acc, rest, want - n)
    | [] -> (acc, [], want - n)
    | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let got, rest, n_got = take want [] pool.blocks in
  pool.blocks <- rest;
  pool.count <- pool.count - n_got;
  pool.lock.release ();
  h.free_lists.(sclass) <- got @ h.free_lists.(sclass);
  h.counts.(sclass) <- h.counts.(sclass) + n_got;
  h.free_bytes <- h.free_bytes + (n_got * block_size)

let pop_free h sclass block_size =
  match h.free_lists.(sclass) with
  | [] -> None
  | addr :: rest ->
    h.free_lists.(sclass) <- rest;
    h.counts.(sclass) <- h.counts.(sclass) - 1;
    h.free_bytes <- h.free_bytes - block_size;
    Some addr

(* A fresh superblock for [sclass], carved from next. *)
let map_superblock t h sclass block_size =
  let base = t.pf.Platform.page_map ~bytes:sb_size ~align:sb_size ~owner:t.owner in
  let sb = Superblock.create ~base ~sb_size ~sclass ~block_size in
  Superblock.set_owner sb (t.pf.Platform.self_tid ());
  Sb_registry.register t.reg sb;
  Alloc_stats.on_map t.stats ~bytes:sb_size;
  h.current.(sclass) <- Some sb;
  sb

(* The free list first, then the carving superblock; only when both are
   out does a thread with a threshold take its class pool's lock, just
   before mapping a new superblock. *)
let malloc t size =
  if size <= 0 then invalid_arg "Private_heaps.malloc: size must be positive";
  t.pf.Platform.work t.p.path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    let h = my_heap t in
    let addr =
      match pop_free h sclass block_size with
      | Some addr -> addr
      | None ->
        (match h.current.(sclass) with
         | Some sb when not (Superblock.is_full sb) -> Superblock.alloc_block sb
         | _ ->
           let refilled =
             match t.p.threshold with
             | Some threshold ->
               refill_from_pool t h ~threshold sclass block_size;
               pop_free h sclass block_size
             | None -> None
           in
           (match refilled with
            | Some addr -> addr
            | None -> Superblock.alloc_block (map_superblock t h sclass block_size)))
    in
    Alloc_stats.on_malloc t.sh ~requested:size ~usable:block_size;
    t.pf.Platform.write ~addr ~len:8;
    addr
  end

let free t addr =
  t.pf.Platform.work t.p.path_work;
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    let sclass = Superblock.sclass sb in
    let block_size = Superblock.block_size sb in
    let h = my_heap t in
    t.pf.Platform.write ~addr ~len:8;
    h.free_lists.(sclass) <- addr :: h.free_lists.(sclass);
    h.counts.(sclass) <- h.counts.(sclass) + 1;
    h.free_bytes <- h.free_bytes + block_size;
    Alloc_stats.on_free t.sh ~usable:block_size;
    (match t.p.threshold with
     | Some threshold when h.counts.(sclass) > threshold -> flush_excess t h ~threshold sclass block_size
     | _ -> ())
  | None -> if not (Locked_large.try_free t.large ~addr) then invalid_arg "Private_heaps.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb -> Superblock.block_size sb
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Private_heaps.usable_size: foreign pointer")

let thread_free_bytes t ~tid =
  match Hashtbl.find_opt t.heaps tid with
  | None -> 0
  | Some h -> h.free_bytes

let global_pool_blocks t ~sclass = t.pools.(sclass).count

(* Bytes on a list of free blocks, each checked to lie in a superblock of
   [sclass]. *)
let list_bytes t ~what ~sclass lst =
  List.fold_left
    (fun acc addr ->
      match Sb_registry.lookup t.reg ~addr with
      | Some sb when Superblock.sclass sb = sclass -> acc + Superblock.block_size sb
      | _ -> failwith (Printf.sprintf "%s: %s entry in wrong class or unknown superblock" t.p.label what))
    0 lst

let check t =
  let fail what = failwith (Printf.sprintf "%s: %s mismatch" t.p.label what) in
  (* Carved-and-not-free blocks are exactly the live ones. *)
  let carved_bytes = ref 0 in
  Sb_registry.iter t.reg (fun sb -> carved_bytes := !carved_bytes + (Superblock.used sb * Superblock.block_size sb));
  let free_bytes = ref 0 in
  Hashtbl.iter
    (fun _ h ->
      let acc = ref 0 in
      Array.iteri
        (fun sclass lst ->
          if List.length lst <> h.counts.(sclass) then fail "free-list count";
          acc := !acc + list_bytes t ~what:"free-list" ~sclass lst)
        h.free_lists;
      if !acc <> h.free_bytes then fail "free_bytes";
      free_bytes := !free_bytes + !acc)
    t.heaps;
  Array.iteri
    (fun sclass pool ->
      if List.length pool.blocks <> pool.count then fail "pool count";
      free_bytes := !free_bytes + list_bytes t ~what:"pool" ~sclass pool.blocks)
    t.pools;
  let s = Alloc_stats.snapshot t.stats in
  if !carved_bytes - !free_bytes + Locked_large.live_bytes t.large <> s.live_bytes then fail "live-bytes accounting"

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:t.p.label ~owner:t.owner ~large_threshold:(sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let pure_private_policy =
  {
    label = "pure-private";
    description = "lock-free per-thread heaps, free-to-freeer (STL/Cilk style; unbounded blowup)";
    table_lock_name = "pureprivate.table";
    path_work = 20;
    threshold = None;
  }

let threshold_policy =
  {
    label = "private-threshold";
    description = "per-thread free lists with overflow to a locked global pool (Vee&Hsu/DYNIX style)";
    table_lock_name = "threshold.table";
    path_work = 22;
    threshold = Some 32;
  }

let create row pf =
  of_policy (match row with `Pure_private -> pure_private_policy | `Private_threshold -> threshold_policy) pf

let factory p =
  { Alloc_intf.label = p.label; description = p.description; instantiate = (fun pf -> allocator (of_policy p pf));
    vmem_backend = Vmem_backend.Exact }

let pure_private () = factory pure_private_policy

let private_threshold () = factory threshold_policy
