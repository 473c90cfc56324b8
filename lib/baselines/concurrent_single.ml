(* Heap id i is the sub-heap dedicated to size class i; free resolves the
   class from the superblock, so a block always returns whence it came. *)

type t = {
  pf : Platform.t;
  classes : Size_class.t;
  subheaps : Heap_core.t array; (* one per size class *)
  locks : Platform.lock array;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  owner : int;
  large : Locked_large.t;
  sb_size : int;
  path_work : int;
  release_threshold : int;
}

let create ?(sb_size = 8192) ?(path_work = 32) ?(release_threshold = 1) pf =
  let classes = Size_class.create ~max_small:(sb_size / 2) () in
  let owner = Alloc_intf.next_owner () in
  let n = Size_class.count classes in
  (* One stats shard per class lock, plus one for the large path. *)
  let stats = Alloc_stats.create ~shards:(n + 1) () in
  {
    pf;
    classes;
    subheaps = Array.init n (fun i -> Heap_core.create ~id:i ~classes ~sb_size ());
    locks = Array.init n (fun i -> pf.Platform.new_lock (Printf.sprintf "concsingle.class%d" i));
    reg = Sb_registry.create pf ~sb_size;
    stats;
    owner;
    large = Locked_large.create pf ~owner ~stats ~shard:n ~threshold:(sb_size / 2);
    sb_size;
    path_work;
    release_threshold;
  }

let release_surplus t sclass =
  let heap = t.subheaps.(sclass) in
  while Heap_core.empty_superblock_count heap > t.release_threshold do
    match Heap_core.pick_victim heap ~max_fullness:0.0 with
    | None -> assert false
    | Some sb ->
      Sb_registry.unregister t.reg sb;
      t.pf.Platform.page_unmap ~addr:(Superblock.base sb);
      Alloc_stats.on_unmap t.stats ~bytes:(Superblock.sb_size sb)
  done

let malloc t size =
  if size <= 0 then invalid_arg "Concurrent_single.malloc: size must be positive";
  t.pf.Platform.work t.path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    let heap = t.subheaps.(sclass) in
    let lock = t.locks.(sclass) in
    lock.acquire ();
    let addr =
      match Heap_core.malloc heap ~sclass ~block_size with
      | Some (addr, sb) ->
        Superblock.touch_header t.pf sb;
        addr
      | None ->
        let base = t.pf.Platform.page_map ~bytes:t.sb_size ~align:t.sb_size ~owner:t.owner in
        let sb = Superblock.create ~base ~sb_size:t.sb_size ~sclass ~block_size in
        Sb_registry.register t.reg sb;
        Alloc_stats.on_map t.stats ~bytes:t.sb_size;
        Heap_core.insert heap sb;
        Superblock.touch_header t.pf sb;
        (match Heap_core.malloc heap ~sclass ~block_size with
         | Some (addr, _) -> addr
         | None -> assert false)
    in
    Alloc_stats.on_malloc (Alloc_stats.shard t.stats sclass) ~requested:size ~usable:block_size;
    t.pf.Platform.write ~addr ~len:8;
    lock.release ();
    addr
  end

let free t addr =
  t.pf.Platform.work t.path_work;
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    let sclass = Superblock.sclass sb in
    let lock = t.locks.(sclass) in
    (* Take the block's and the header's lines before locking, as Hoard
       does. *)
    t.pf.Platform.write ~addr ~len:8;
    Superblock.touch_header t.pf sb;
    lock.acquire ();
    t.pf.Platform.write ~addr ~len:8;
    Heap_core.free t.subheaps.(sclass) sb addr;
    Superblock.touch_header t.pf sb;
    Alloc_stats.on_free (Alloc_stats.shard t.stats sclass) ~usable:(Superblock.block_size sb);
    release_surplus t sclass;
    lock.release ()
  | None ->
    if not (Locked_large.try_free t.large ~addr) then invalid_arg "Concurrent_single.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else invalid_arg "Concurrent_single.usable_size: dead block"
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Concurrent_single.usable_size: foreign pointer")

let check t =
  Array.iter Heap_core.check t.subheaps;
  let s = Alloc_stats.snapshot t.stats in
  let u = Array.fold_left (fun acc h -> acc + Heap_core.u h) 0 t.subheaps in
  if u + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Concurrent_single.check: live-bytes accounting mismatch"

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"concurrent-single" ~owner:t.owner ~large_threshold:(t.sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let factory ?(sb_size = 8192) () =
  {
    Alloc_intf.label = "concurrent-single";
    description = "one shared heap with a lock per size class";
    instantiate = (fun pf -> allocator (create ~sb_size pf));
  }
