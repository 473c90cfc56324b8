type t = {
  pf : Platform.t;
  heap : Heap_core.t;
  lock : Platform.lock;
  classes : Size_class.t;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  sh : Alloc_stats.shard; (* shard 0: all small-path events run under [lock] *)
  owner : int;
  large : Locked_large.t;
  sb_size : int;
  path_work : int;
  release_threshold : int;
}

let create ?(sb_size = 8192) ?(path_work = 25) ?(release_threshold = 4) pf =
  let classes = Size_class.create ~max_small:(sb_size / 2) () in
  let stats = Alloc_stats.create ~shards:2 () in
  let owner = Alloc_intf.next_owner () in
  {
    pf;
    heap = Heap_core.create ~id:0 ~classes ~sb_size ();
    lock = pf.Platform.new_lock "serial.heap";
    classes;
    reg = Sb_registry.create pf ~sb_size;
    stats;
    sh = Alloc_stats.shard stats 0;
    owner;
    large = Locked_large.create pf ~owner ~stats ~shard:1 ~threshold:(sb_size / 2);
    sb_size;
    path_work;
    release_threshold;
  }

let release_surplus t =
  while Heap_core.empty_superblock_count t.heap > t.release_threshold do
    match Heap_core.pick_victim t.heap ~max_fullness:0.0 with
    | None -> assert false
    | Some sb ->
      Sb_registry.unregister t.reg sb;
      t.pf.Platform.page_unmap ~addr:(Superblock.base sb);
      Alloc_stats.on_unmap t.stats ~bytes:(Superblock.sb_size sb)
  done

let malloc t size =
  if size <= 0 then invalid_arg "Serial_alloc.malloc: size must be positive";
  t.pf.Platform.work t.path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    t.lock.acquire ();
    let addr =
      match Heap_core.malloc t.heap ~sclass ~block_size with
      | Some (addr, sb) ->
        Superblock.touch_header t.pf sb;
        addr
      | None ->
        let base = t.pf.Platform.page_map ~bytes:t.sb_size ~align:t.sb_size ~owner:t.owner in
        let sb = Superblock.create ~base ~sb_size:t.sb_size ~sclass ~block_size in
        Sb_registry.register t.reg sb;
        Alloc_stats.on_map t.stats ~bytes:t.sb_size;
        Heap_core.insert t.heap sb;
        Superblock.touch_header t.pf sb;
        (match Heap_core.malloc t.heap ~sclass ~block_size with
         | Some (addr, _) -> addr
         | None -> assert false)
    in
    Alloc_stats.on_malloc t.sh ~requested:size ~usable:block_size;
    t.pf.Platform.write ~addr ~len:8;
    t.lock.release ();
    addr
  end

let free t addr =
  t.pf.Platform.work t.path_work;
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    (* Take the block's and the header's lines before locking, as Hoard
       does. *)
    t.pf.Platform.write ~addr ~len:8;
    Superblock.touch_header t.pf sb;
    t.lock.acquire ();
    t.pf.Platform.write ~addr ~len:8;
    Heap_core.free t.heap sb addr;
    Superblock.touch_header t.pf sb;
    Alloc_stats.on_free t.sh ~usable:(Superblock.block_size sb);
    release_surplus t;
    t.lock.release ()
  | None -> if not (Locked_large.try_free t.large ~addr) then invalid_arg "Serial_alloc.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else invalid_arg "Serial_alloc.usable_size: dead block"
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Serial_alloc.usable_size: foreign pointer")

let check t =
  Heap_core.check t.heap;
  let s = Alloc_stats.snapshot t.stats in
  if Heap_core.u t.heap + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Serial_alloc.check: live-bytes accounting mismatch"

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"serial" ~owner:t.owner ~large_threshold:(t.sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let factory ?(sb_size = 8192) () =
  {
    Alloc_intf.label = "serial";
    description = "single heap, single lock (Solaris-malloc-style serial allocator)";
    instantiate = (fun pf -> allocator (create ~sb_size pf));
  }
