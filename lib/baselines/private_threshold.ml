let sb_size = 8192

let path_work = 22

type pheap = {
  free_lists : int list array; (* per class *)
  counts : int array;
  current : Superblock.t option array; (* superblock being carved, per class *)
  mutable free_bytes : int;
}

type pool = { lock : Platform.lock; mutable blocks : int list; mutable count : int }

type t = {
  pf : Platform.t;
  classes : Size_class.t;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  sh : Alloc_stats.shard; (* shard 0: small-path events; thread-private heaps are sim-only *)
  owner : int;
  large : Locked_large.t;
  threshold : int;
  heaps : (int, pheap) Hashtbl.t; (* tid -> heap *)
  table_lock : Platform.lock;
  pools : pool array; (* per class *)
}

let create ?(threshold = 32) pf =
  if threshold < 2 then invalid_arg "Private_threshold.create: threshold must be >= 2";
  let classes = Size_class.create ~max_small:(sb_size / 2) () in
  let stats = Alloc_stats.create ~shards:2 () in
  let owner = Alloc_intf.next_owner () in
  {
    pf;
    classes;
    reg = Sb_registry.create pf ~sb_size;
    stats;
    sh = Alloc_stats.shard stats 0;
    owner;
    large = Locked_large.create pf ~owner ~stats ~shard:1 ~threshold:(sb_size / 2);
    threshold;
    heaps = Hashtbl.create 32;
    table_lock = pf.Platform.new_lock "threshold.table";
    pools =
      Array.init (Size_class.count classes) (fun i ->
          { lock = pf.Platform.new_lock (Printf.sprintf "threshold.pool%d" i); blocks = []; count = 0 });
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

(* Move half of an overflowing class list to the global pool. *)
let flush_excess t h sclass block_size =
  let keep = t.threshold / 2 in
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

(* Refill up to half a threshold's worth of blocks from the global pool. *)
let refill_from_pool t h sclass block_size =
  let want = t.threshold / 2 in
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
  if n_got > 0 then begin
    h.free_lists.(sclass) <- got @ h.free_lists.(sclass);
    h.counts.(sclass) <- h.counts.(sclass) + n_got;
    h.free_bytes <- h.free_bytes + (n_got * block_size);
    true
  end
  else false

let malloc t size =
  if size <= 0 then invalid_arg "Private_threshold.malloc: size must be positive";
  t.pf.Platform.work path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    let h = my_heap t in
    if h.counts.(sclass) = 0 then ignore (refill_from_pool t h sclass block_size);
    let addr =
      match h.free_lists.(sclass) with
      | addr :: rest ->
        h.free_lists.(sclass) <- rest;
        h.counts.(sclass) <- h.counts.(sclass) - 1;
        h.free_bytes <- h.free_bytes - block_size;
        addr
      | [] ->
        let sb =
          match h.current.(sclass) with
          | Some sb when not (Superblock.is_full sb) -> sb
          | _ ->
            let base = t.pf.Platform.page_map ~bytes:sb_size ~align:sb_size ~owner:t.owner in
            let sb = Superblock.create ~base ~sb_size ~sclass ~block_size in
            Superblock.set_owner sb (t.pf.Platform.self_tid ());
            Sb_registry.register t.reg sb;
            Alloc_stats.on_map t.stats ~bytes:sb_size;
            h.current.(sclass) <- Some sb;
            sb
        in
        Superblock.alloc_block sb
    in
    Alloc_stats.on_malloc t.sh ~requested:size ~usable:block_size;
    t.pf.Platform.write ~addr ~len:8;
    addr
  end

let free t addr =
  t.pf.Platform.work path_work;
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
    if h.counts.(sclass) > t.threshold then flush_excess t h sclass block_size
  | None ->
    if not (Locked_large.try_free t.large ~addr) then invalid_arg "Private_threshold.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb -> Superblock.block_size sb
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Private_threshold.usable_size: foreign pointer")

let global_pool_blocks t ~sclass = t.pools.(sclass).count

let check t =
  let carved_bytes = ref 0 in
  Sb_registry.iter t.reg (fun sb -> carved_bytes := !carved_bytes + (Superblock.used sb * Superblock.block_size sb));
  let free_bytes = ref 0 in
  Hashtbl.iter
    (fun _ h ->
      let acc = ref 0 in
      Array.iteri
        (fun sclass lst ->
          if List.length lst <> h.counts.(sclass) then failwith "Private_threshold.check: count mismatch";
          List.iter
            (fun addr ->
              match Sb_registry.lookup t.reg ~addr with
              | Some sb when Superblock.sclass sb = sclass -> acc := !acc + Superblock.block_size sb
              | _ -> failwith "Private_threshold.check: bad free-list entry")
            lst)
        h.free_lists;
      if !acc <> h.free_bytes then failwith "Private_threshold.check: free_bytes mismatch";
      free_bytes := !free_bytes + !acc)
    t.heaps;
  Array.iteri
    (fun sclass pool ->
      if List.length pool.blocks <> pool.count then failwith "Private_threshold.check: pool count mismatch";
      List.iter
        (fun addr ->
          match Sb_registry.lookup t.reg ~addr with
          | Some sb when Superblock.sclass sb = sclass ->
            free_bytes := !free_bytes + Superblock.block_size sb
          | _ -> failwith "Private_threshold.check: bad pool entry")
        pool.blocks)
    t.pools;
  let s = Alloc_stats.snapshot t.stats in
  if !carved_bytes - !free_bytes + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Private_threshold.check: live-bytes accounting mismatch"

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"private-threshold" ~owner:t.owner ~large_threshold:(sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let factory () =
  {
    Alloc_intf.label = "private-threshold";
    description = "per-thread free lists with overflow to a locked global pool (Vee&Hsu/DYNIX style)";
    instantiate = (fun pf -> allocator (create pf));
  }
