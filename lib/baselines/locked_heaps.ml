let sb_size = 8192

type home =
  | Only (* one heap *)
  | By_class (* heap i serves size class i *)
  | By_proc (* heap i serves processor i *)

type policy = {
  label : string;
  description : string;
  home : home;
  lock_name : int -> string;
  keep_empty : int option; (* empty superblocks a heap keeps before unmapping; [None]: never unmaps *)
  path_work : int;
}

type heap = { core : Heap_core.t; lock : Platform.lock; sh : Alloc_stats.shard }

type t = {
  pf : Platform.t;
  p : policy;
  classes : Size_class.t;
  heaps : heap array;
  reg : Sb_registry.t;
  stats : Alloc_stats.t;
  owner : int;
  large : Locked_large.t;
}

let create p pf =
  let classes = Size_class.create ~max_small:(sb_size / 2) () in
  let n =
    match p.home with
    | Only -> 1
    | By_class -> Size_class.count classes
    | By_proc -> pf.Platform.nprocs
  in
  (* One stats shard per heap lock, plus one for the large path. *)
  let stats = Alloc_stats.create ~shards:(n + 1) () in
  let owner = Alloc_intf.next_owner () in
  (* Each lock word's simulated address follows creation order: the large
     path's lock, then the registry's stripes, then the heap locks. *)
  let large = Locked_large.create pf ~owner ~stats ~shard:n ~threshold:(sb_size / 2) in
  let reg = Sb_registry.create pf ~sb_size in
  let heaps =
    Array.init n (fun i ->
        {
          core = Heap_core.create ~id:i ~classes ~sb_size ();
          lock = pf.Platform.new_lock (p.lock_name i);
          sh = Alloc_stats.shard stats i;
        })
  in
  { pf; p; classes; heaps; reg; stats; owner; large }

let home t ~sclass =
  match t.p.home with
  | Only -> 0
  | By_class -> sclass
  | By_proc -> t.pf.Platform.self_proc () mod Array.length t.heaps

let release_surplus t h =
  match t.p.keep_empty with
  | None -> ()
  | Some keep ->
    while Heap_core.empty_superblock_count h.core > keep do
      match Heap_core.pick_victim h.core ~max_fullness:0.0 with
      | None -> assert false
      | Some sb ->
        Sb_registry.unregister t.reg sb;
        t.pf.Platform.page_unmap ~addr:(Superblock.base sb);
        Alloc_stats.on_unmap t.stats ~bytes:(Superblock.sb_size sb)
    done

let malloc t size =
  if size <= 0 then invalid_arg "Locked_heaps.malloc: size must be positive";
  t.pf.Platform.work t.p.path_work;
  if Locked_large.is_large t.large size then Locked_large.malloc t.large size
  else begin
    let sclass = Size_class.class_of_size t.classes size in
    let block_size = Size_class.size_of_class t.classes sclass in
    let h = t.heaps.(home t ~sclass) in
    h.lock.acquire ();
    let addr =
      match Heap_core.malloc h.core ~sclass ~block_size with
      | Some (addr, sb) ->
        Superblock.touch_header t.pf sb;
        addr
      | None ->
        let base = t.pf.Platform.page_map ~bytes:sb_size ~align:sb_size ~owner:t.owner in
        let sb = Superblock.create ~base ~sb_size ~sclass ~block_size in
        Sb_registry.register t.reg sb;
        Alloc_stats.on_map t.stats ~bytes:sb_size;
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
  t.pf.Platform.work t.p.path_work;
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    (* Superblocks never change heaps here, so the owner's lock suffices. *)
    let owner = Superblock.owner sb in
    let h = t.heaps.(owner) in
    (* Take the block's and the header's lines before locking, as Hoard
       does. *)
    t.pf.Platform.write ~addr ~len:8;
    Superblock.touch_header t.pf sb;
    h.lock.acquire ();
    if home t ~sclass:(Superblock.sclass sb) <> owner then Alloc_stats.on_remote_free h.sh;
    t.pf.Platform.write ~addr ~len:8;
    Heap_core.free h.core sb addr;
    Superblock.touch_header t.pf sb;
    Alloc_stats.on_free h.sh ~usable:(Superblock.block_size sb);
    release_surplus t h;
    h.lock.release ()
  | None -> if not (Locked_large.try_free t.large ~addr) then invalid_arg "Locked_heaps.free: foreign pointer"

let usable_size t addr =
  match Sb_registry.lookup t.reg ~addr with
  | Some sb ->
    if Superblock.is_block_live sb addr then Superblock.block_size sb
    else invalid_arg "Locked_heaps.usable_size: dead block"
  | None ->
    (match Locked_large.usable_size t.large ~addr with
     | Some n -> n
     | None -> invalid_arg "Locked_heaps.usable_size: foreign pointer")

let check t =
  Array.iter (fun h -> Heap_core.check h.core) t.heaps;
  let s = Alloc_stats.snapshot t.stats in
  let u = Array.fold_left (fun acc h -> acc + Heap_core.u h.core) 0 t.heaps in
  if u + Locked_large.live_bytes t.large <> s.live_bytes then
    failwith (t.p.label ^ ": live-bytes accounting mismatch")

let allocator t =
  Alloc_api.make ~pf:t.pf ~name:t.p.label ~owner:t.owner ~large_threshold:(sb_size / 2)
    ~malloc:(fun size -> malloc t size)
    ~free:(fun addr -> free t addr)
    ~usable_size:(fun addr -> usable_size t addr)
    ~stats:(fun () -> Alloc_stats.snapshot t.stats)
    ~check:(fun () -> check t)
    ()

let factory p =
  { Alloc_intf.label = p.label; description = p.description; instantiate = (fun pf -> allocator (create p pf));
    vmem_backend = Vmem_backend.Exact }

let serial () =
  factory
    {
      label = "serial";
      description = "single heap, single lock (Solaris-malloc-style serial allocator)";
      home = Only;
      lock_name = (fun _ -> "serial.heap");
      keep_empty = Some 4;
      path_work = 25;
    }

let concurrent_single () =
  factory
    {
      label = "concurrent-single";
      description = "one shared heap with a lock per size class";
      home = By_class;
      lock_name = Printf.sprintf "concsingle.class%d";
      keep_empty = Some 1;
      path_work = 32;
    }

let private_ownership () =
  factory
    {
      label = "private-ownership";
      description = "per-processor arenas with free-to-owner (Ptmalloc/MTmalloc style; O(P) blowup)";
      home = By_proc;
      lock_name = Printf.sprintf "ownership.heap%d";
      keep_empty = None;
      path_work = 28;
    }
