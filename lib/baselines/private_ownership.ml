type heap = { core : Heap_core.t; lock : Platform.lock; sh : Alloc_stats.shard }

type t = {
  pf : Platform.t;
  classes : Size_class.t;
  heaps : heap array;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  owner : int;
  large : Locked_large.t;
  sb_size : int;
  path_work : int;
}

let create ?(sb_size = 8192) ?(path_work = 28) ?nheaps pf =
  let n =
    match nheaps with
    | Some n -> n
    | None -> pf.Platform.nprocs
  in
  if n < 1 then invalid_arg "Private_ownership.create: nheaps must be >= 1";
  let classes = Size_class.create ~max_small:(sb_size / 2) () in
  let stats = Alloc_stats.create ~shards:(n + 1) () in
  let owner = Alloc_intf.next_owner () in
  {
    pf;
    classes;
    heaps =
      Array.init n (fun i ->
          {
            core = Heap_core.create ~id:i ~classes ~sb_size ();
            lock = pf.Platform.new_lock (Printf.sprintf "ownership.heap%d" i);
            sh = Alloc_stats.shard stats i;
          });
    reg = Sb_registry.create pf ~sb_size;
    stats;
    owner;
    large = Locked_large.create pf ~owner ~stats ~shard:n ~threshold:(sb_size / 2);
    sb_size;
    path_work;
  }

let my_heap t = t.heaps.(t.pf.Platform.self_proc () mod Array.length t.heaps)

let malloc t size =
  if size <= 0 then invalid_arg "Private_ownership.malloc: size must be positive";
  t.pf.Platform.work t.path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    let h = my_heap t in
    h.lock.acquire ();
    let addr =
      match Heap_core.malloc h.core ~sclass ~block_size with
      | Some (addr, sb) ->
        Superblock.touch_header t.pf sb;
        addr
      | None ->
        let base = t.pf.Platform.page_map ~bytes:t.sb_size ~align:t.sb_size ~owner:t.owner in
        let sb = Superblock.create ~base ~sb_size:t.sb_size ~sclass ~block_size in
        Sb_registry.register t.reg sb;
        Alloc_stats.on_map t.stats ~bytes:t.sb_size;
        Heap_core.insert h.core sb;
        Superblock.touch_header t.pf sb;
        (match Heap_core.malloc h.core ~sclass ~block_size with
         | Some (addr, _) -> addr
         | None -> assert false)
    in
    Alloc_stats.on_malloc h.sh ~requested:size ~usable:block_size;
    t.pf.Platform.write ~addr ~len:8;
    h.lock.release ();
    addr
  end

let free t addr =
  t.pf.Platform.work t.path_work;
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    (* Ownership never changes in this allocator, so a single lock of the
       owning heap suffices. *)
    let h = t.heaps.(Superblock.owner sb) in
    (* Take the block's and the header's lines before locking, as Hoard
       does. *)
    t.pf.Platform.write ~addr ~len:8;
    Superblock.touch_header t.pf sb;
    h.lock.acquire ();
    if h != my_heap t then Alloc_stats.on_remote_free h.sh;
    t.pf.Platform.write ~addr ~len:8;
    Heap_core.free h.core sb addr;
    Superblock.touch_header t.pf sb;
    Alloc_stats.on_free h.sh ~usable:(Superblock.block_size sb);
    h.lock.release ()
  | None ->
    if not (Locked_large.try_free t.large ~addr) then invalid_arg "Private_ownership.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else invalid_arg "Private_ownership.usable_size: dead block"
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Private_ownership.usable_size: foreign pointer")

let heap_held_bytes t ~heap = Heap_core.a t.heaps.(heap).core

let check t =
  Array.iter (fun h -> Heap_core.check h.core) t.heaps;
  let s = Alloc_stats.snapshot t.stats in
  let u = Array.fold_left (fun acc h -> acc + Heap_core.u h.core) 0 t.heaps in
  if u + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith "Private_ownership.check: live-bytes accounting mismatch"

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:"private-ownership" ~owner:t.owner ~large_threshold:(t.sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let factory ?(sb_size = 8192) () =
  {
    Alloc_intf.label = "private-ownership";
    description = "per-processor arenas with free-to-owner (Ptmalloc/MTmalloc style; O(P) blowup)";
    instantiate = (fun pf -> allocator (create ~sb_size pf));
  }
