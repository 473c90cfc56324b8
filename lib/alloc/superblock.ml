let header_bytes = 64

type t = {
  sb_base : int;
  size : int;
  mutable bsize : int;
  mutable cls : int;
  mutable cap : int; (* blocks at current block size *)
  mutable used_blocks : int;
  mutable carved : int; (* blocks handed out at least once (bump frontier) *)
  mutable free_head : int; (* head of LIFO free list, -1 when empty *)
  next_free : int array; (* free-list links, indexed by block number *)
  live : Bytes.t; (* allocation bitmap, one byte per block *)
  (* Front-end custody bitmap: set while a freed (or fill-surplus) block
     sits in a thread cache or remote-free queue, cleared when it returns
     to the program (cache hit) or the heap core (drain). Lets ANY thread
     detect a double free of a block cached by ANOTHER thread in O(1) —
     a per-thread membership scan can't. Same write discipline as [live]:
     single-byte stores, owned by whichever thread holds the block. *)
  cached : Bytes.t;
  mutable own : int;
  mutable grp : int;
  mutable node : t Dlist.node option;
  (* Slot id in the lock-free global index, assigned once on the
     superblock's first publication there and stable for its lifetime
     (reinit keeps it: the slot is identity, not membership). -1 until
     first published. *)
  mutable gslot : int;
}

let capacity_for size bsize = (size - header_bytes) / bsize

let create ~base ~sb_size ~sclass ~block_size =
  if base mod sb_size <> 0 then invalid_arg "Superblock.create: base not aligned";
  if block_size < 8 || block_size > sb_size - header_bytes then invalid_arg "Superblock.create: bad block_size";
  let max_cap = capacity_for sb_size 8 in
  {
    sb_base = base;
    size = sb_size;
    bsize = block_size;
    cls = sclass;
    cap = capacity_for sb_size block_size;
    used_blocks = 0;
    carved = 0;
    free_head = -1;
    next_free = Array.make max_cap (-1);
    live = Bytes.make max_cap '\000';
    cached = Bytes.make max_cap '\000';
    own = -1;
    grp = -1;
    node = None;
    gslot = -1;
  }

let base t = t.sb_base

let touch_header (pf : Platform.t) t = pf.write ~addr:t.sb_base ~len:16

let sb_size t = t.size

let block_size t = t.bsize

let sclass t = t.cls

let n_blocks t = t.cap

let used t = t.used_blocks

let fullness t = float_of_int t.used_blocks /. float_of_int t.cap

let is_empty t = t.used_blocks = 0

let is_full t = t.used_blocks = t.cap

let owner t = t.own

let set_owner t o = t.own <- o

let addr_of_index t i = t.sb_base + header_bytes + (i * t.bsize)

let index_of_addr t addr =
  let off = addr - t.sb_base - header_bytes in
  if off < 0 || off >= t.cap * t.bsize then invalid_arg "Superblock: address outside block area";
  if off mod t.bsize <> 0 then invalid_arg "Superblock: address not at a block boundary";
  off / t.bsize

let contains t addr =
  let off = addr - t.sb_base - header_bytes in
  off >= 0 && off < t.cap * t.bsize

let alloc_block t =
  let i =
    if t.free_head >= 0 then begin
      let i = t.free_head in
      t.free_head <- t.next_free.(i);
      i
    end
    else if t.carved < t.cap then begin
      let i = t.carved in
      t.carved <- i + 1;
      i
    end
    else failwith "Superblock.alloc_block: full"
  in
  assert (Bytes.get t.live i = '\000');
  Bytes.set t.live i '\001';
  t.used_blocks <- t.used_blocks + 1;
  addr_of_index t i

let free_block t addr =
  let i = index_of_addr t addr in
  if i >= t.carved then invalid_arg "Superblock.free_block: block never allocated";
  if Bytes.get t.live i = '\000' then failwith "Superblock.free_block: double free";
  Bytes.set t.live i '\000';
  t.next_free.(i) <- t.free_head;
  t.free_head <- i;
  t.used_blocks <- t.used_blocks - 1

let is_block_live t addr =
  let i = index_of_addr t addr in
  i < t.carved && Bytes.get t.live i = '\001'

let mark_cached t addr = Bytes.set t.cached (index_of_addr t addr) '\001'

let clear_cached t addr = Bytes.set t.cached (index_of_addr t addr) '\000'

let is_block_cached t addr = Bytes.get t.cached (index_of_addr t addr) = '\001'

let check_in_custody ~what t addr =
  if not (is_block_live t addr) then failwith (Printf.sprintf "Hoard.check: %s block %#x not bitmap-live" what addr);
  if not (is_block_cached t addr) then
    failwith (Printf.sprintf "Hoard.check: %s block %#x without custody mark" what addr)

type region =
  | Header
  | Block of { b_start : int; b_index : int; b_live : bool }
  | Tail_waste

let locate t addr =
  let off = addr - t.sb_base in
  if off < 0 || off >= t.size then invalid_arg "Superblock.locate: address outside superblock";
  if off < header_bytes then Header
  else
    let boff = off - header_bytes in
    let i = boff / t.bsize in
    if i >= t.cap then Tail_waste
    else
      Block
        {
          b_start = addr_of_index t i;
          b_index = i;
          b_live = (i < t.carved && Bytes.get t.live i = '\001');
        }

let reinit t ~sclass ~block_size =
  if t.used_blocks > 0 then failwith "Superblock.reinit: superblock not empty";
  if block_size < 8 || block_size > t.size - header_bytes then invalid_arg "Superblock.reinit: bad block_size";
  t.bsize <- block_size;
  t.cls <- sclass;
  t.cap <- capacity_for t.size block_size;
  t.carved <- 0;
  t.free_head <- -1

let gslot t = t.gslot

let set_gslot t i = t.gslot <- i

let group_index t = t.grp

let set_group t g node =
  t.grp <- g;
  t.node <- node

let group_node t = t.node

let check t =
  if t.used_blocks < 0 || t.used_blocks > t.cap then failwith "Superblock.check: used out of range";
  if t.carved < 0 || t.carved > t.cap then failwith "Superblock.check: carved out of range";
  let live = ref 0 in
  for i = 0 to t.carved - 1 do
    if Bytes.get t.live i = '\001' then incr live
  done;
  for i = t.carved to t.cap - 1 do
    if Bytes.get t.live i = '\001' then failwith "Superblock.check: live block beyond bump frontier"
  done;
  if !live <> t.used_blocks then failwith "Superblock.check: bitmap/used mismatch";
  for i = 0 to t.cap - 1 do
    if Bytes.get t.cached i = '\001' && Bytes.get t.live i <> '\001' then
      failwith "Superblock.check: cached block not live"
  done;
  (* Free-list nodes must be carved, dead and non-repeating. *)
  let seen = Bytes.make t.cap '\000' in
  let rec walk i n =
    if i >= 0 then begin
      if i >= t.carved then failwith "Superblock.check: free list beyond frontier";
      if Bytes.get t.live i = '\001' then failwith "Superblock.check: live block on free list";
      if Bytes.get seen i = '\001' then failwith "Superblock.check: free-list cycle";
      Bytes.set seen i '\001';
      if n > t.cap then failwith "Superblock.check: free list too long";
      walk t.next_free.(i) (n + 1)
    end
  in
  walk t.free_head 0;
  let free_len = ref 0 in
  for i = 0 to t.cap - 1 do
    if Bytes.get seen i = '\001' then incr free_len
  done;
  if !free_len <> t.carved - t.used_blocks then failwith "Superblock.check: free-list length mismatch"
