let sb_size = 8192

let path_work = 20

type pheap = {
  free_lists : int list array; (* per class: stack of free block addresses *)
  mutable free_bytes : int;
  current : Superblock.t option array; (* per class: superblock being carved *)
}

type t = {
  pf : Platform.t;
  classes : Size_class.t;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  sh : Alloc_stats.shard; (* shard 0: small-path events; thread-private heaps are sim-only *)
  owner : int;
  large : Locked_large.t;
  heaps : (int, pheap) Hashtbl.t; (* tid -> heap *)
  table_lock : Platform.lock;
}

let create pf =
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
    heaps = Hashtbl.create 32;
    table_lock = pf.Platform.new_lock "pureprivate.table";
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
        let h = { free_lists = Array.make n []; free_bytes = 0; current = Array.make n None } in
        Hashtbl.replace t.heaps tid h;
        h
    in
    t.table_lock.release ();
    h

let malloc t size =
  if size <= 0 then invalid_arg "Pure_private.malloc: size must be positive";
  t.pf.Platform.work path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    let h = my_heap t in
    let addr =
      match h.free_lists.(sclass) with
      | addr :: rest ->
        h.free_lists.(sclass) <- rest;
        h.free_bytes <- h.free_bytes - block_size;
        addr
      | [] ->
        let sb =
          match h.current.(sclass) with
          | Some sb when not (Superblock.is_full sb) -> sb
          | _ ->
            let base = t.pf.Platform.page_map ~bytes:sb_size ~align:sb_size ~owner:t.owner in
            let sb =
              Superblock.create ~base ~sb_size ~sclass ~block_size
            in
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
    h.free_bytes <- h.free_bytes + block_size;
    Alloc_stats.on_free t.sh ~usable:block_size
  | None -> if not (Locked_large.try_free t.large ~addr) then invalid_arg "Pure_private.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb -> Superblock.block_size sb
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Pure_private.usable_size: foreign pointer")

let thread_free_bytes t ~tid =
  match Hashtbl.find_opt t.heaps tid with
  | None -> 0
  | Some h -> h.free_bytes

let check t =
  (* Carved-and-not-on-a-free-list blocks are exactly the live ones. *)
  let carved_bytes = ref 0 in
  Sb_registry.iter t.reg (fun sb -> carved_bytes := !carved_bytes + (Superblock.used sb * Superblock.block_size sb));
  let free_bytes = ref 0 in
  Hashtbl.iter
    (fun _ h ->
      let acc = ref 0 in
      Array.iteri
        (fun sclass lst ->
          List.iter
            (fun addr ->
              match Sb_registry.lookup t.reg ~addr with
              | Some sb when Superblock.sclass sb = sclass -> acc := !acc + Superblock.block_size sb
              | _ -> failwith "Pure_private.check: free-list entry in wrong class or unknown superblock")
            lst)
        h.free_lists;
      if !acc <> h.free_bytes then failwith "Pure_private.check: free_bytes mismatch";
      free_bytes := !free_bytes + !acc)
    t.heaps;
  let s = Alloc_stats.snapshot t.stats in
  if !carved_bytes - !free_bytes + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Pure_private.check: live-bytes accounting mismatch"

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"pure-private" ~owner:t.owner ~large_threshold:(sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let factory () =
  {
    Alloc_intf.label = "pure-private";
    description = "lock-free per-thread heaps, free-to-freeer (STL/Cilk style; unbounded blowup)";
    instantiate = (fun pf -> allocator (create pf));
  }
