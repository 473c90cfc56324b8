type t = {
  heap_id : int;
  classes : Size_class.t;
  sbsz : int;
  (* [class].[bin]; bin ngroups = full. A class's bins are made on its
     first insert: until then its entry is [||], and every scan treats it
     as a class with no superblocks. *)
  groups : Superblock.t Dlist.t array array;
  empties : Superblock.t Dlist.t; (* completely empty, any class *)
  mutable in_use : int;
  mutable held : int;
  mutable usable : int; (* sum over superblocks of n_blocks * block_size *)
  class_counts : int array; (* linked superblocks per size class *)
}

(* Partial-fullness groups per size class, as in the paper. *)
let ngroups = 8

(* Group encoding stored in each superblock: bins 0..ngroups-1 are partial
   fullness ranges, bin ngroups is "full", bin ngroups+1 means "in the
   empties pool", -1 means unlinked. The heaps bin with [ngroups] groups;
   the lock-free global index (which has no Heap_core.t) calls the same
   pure math with one group, so it knows only empty, partial and full. *)
let empties_bin_index ~ngroups = ngroups + 1

let full_bin_index ~ngroups = ngroups

let bin_index ~ngroups ~used ~cap =
  if used = 0 then empties_bin_index ~ngroups
  else if used = cap then full_bin_index ~ngroups
  else used * ngroups / cap

let empties_bin = empties_bin_index ~ngroups

let create ~id ~classes ~sb_size () =
  {
    heap_id = id;
    classes;
    sbsz = sb_size;
    groups = Array.make (Size_class.count classes) [||];
    empties = Dlist.create ();
    in_use = 0;
    held = 0;
    usable = 0;
    class_counts = Array.make (Size_class.count classes) 0;
  }

let id t = t.heap_id

let sb_size t = t.sbsz

let u t = t.in_use

let a t = t.held

let usable_a t = t.usable

let bin_of sb =
  bin_index ~ngroups ~used:(Superblock.used sb) ~cap:(Superblock.n_blocks sb)

let class_bins t sclass =
  if Array.length t.groups.(sclass) = 0 then t.groups.(sclass) <- Array.init (ngroups + 1) (fun _ -> Dlist.create ());
  t.groups.(sclass)

let list_for t sb bin = if bin = empties_bin then t.empties else (class_bins t (Superblock.sclass sb)).(bin)

let unlink t sb =
  match Superblock.group_node sb with
  | None -> invalid_arg "Heap_core: superblock not linked"
  | Some node ->
    Dlist.remove (list_for t sb (Superblock.group_index sb)) node;
    Superblock.set_group sb (-1) None

let link t sb =
  let bin = bin_of sb in
  let node = Dlist.push_front (list_for t sb bin) sb in
  Superblock.set_group sb bin (Some node)

(* Move a superblock to its correct group after a fullness change. *)
let reposition t sb =
  let bin = bin_of sb in
  if bin <> Superblock.group_index sb then begin
    unlink t sb;
    link t sb
  end

let contribution sb = Superblock.used sb * Superblock.block_size sb

let usable_contribution sb = Superblock.n_blocks sb * Superblock.block_size sb

let insert t sb =
  Superblock.set_owner sb t.heap_id;
  t.held <- t.held + Superblock.sb_size sb;
  t.in_use <- t.in_use + contribution sb;
  t.usable <- t.usable + usable_contribution sb;
  t.class_counts.(Superblock.sclass sb) <- t.class_counts.(Superblock.sclass sb) + 1;
  link t sb

let remove t sb =
  unlink t sb;
  t.held <- t.held - Superblock.sb_size sb;
  t.in_use <- t.in_use - contribution sb;
  t.usable <- t.usable - usable_contribution sb;
  t.class_counts.(Superblock.sclass sb) <- t.class_counts.(Superblock.sclass sb) - 1

let superblock_count t = t.held / t.sbsz

let empty_superblock_count t = Dlist.length t.empties

(* Fullest-first search among the partial bins of a class. *)
let find_partial t sclass =
  let bins = t.groups.(sclass) in
  let rec scan bin =
    if bin < 0 then None
    else
      match Dlist.peek_front bins.(bin) with
      | Some sb -> Some sb
      | None -> scan (bin - 1)
  in
  if Array.length bins = 0 then None else scan (ngroups - 1)

let malloc t ~sclass ~block_size =
  let sb =
    match find_partial t sclass with
    | Some sb -> Some sb
    | None ->
      (match Dlist.peek_front t.empties with
       | None -> None
       | Some sb ->
         if Superblock.sclass sb <> sclass || Superblock.block_size sb <> block_size then begin
           t.usable <- t.usable - usable_contribution sb;
           t.class_counts.(Superblock.sclass sb) <- t.class_counts.(Superblock.sclass sb) - 1;
           Superblock.reinit sb ~sclass ~block_size;
           t.usable <- t.usable + usable_contribution sb;
           t.class_counts.(sclass) <- t.class_counts.(sclass) + 1
         end;
         Some sb)
  in
  match sb with
  | None -> None
  | Some sb ->
    let addr = Superblock.alloc_block sb in
    t.in_use <- t.in_use + Superblock.block_size sb;
    reposition t sb;
    Some (addr, sb)

let free t sb addr =
  if Superblock.owner sb <> t.heap_id then invalid_arg "Heap_core.free: superblock owned by another heap";
  Superblock.free_block sb addr;
  t.in_use <- t.in_use - Superblock.block_size sb;
  reposition t sb

(* Batched forms: one group-list traversal amortised over up to [n]
   blocks. [malloc_batch] stops early when the heap runs dry (the caller
   refills and retries); both preserve exactly the per-operation
   accounting of their singular counterparts. *)
let malloc_batch t ~sclass ~block_size ~n =
  let out = ref [] and got = ref 0 and short = ref false in
  while (not !short) && !got < n do
    match malloc t ~sclass ~block_size with
    | Some pair ->
      out := pair :: !out;
      incr got
    | None -> short := true
  done;
  List.rev !out

let take_for_class t ~sclass =
  let sb =
    match find_partial t sclass with
    | Some sb -> Some sb
    | None -> Dlist.peek_front t.empties
  in
  match sb with
  | None -> None
  | Some sb ->
    remove t sb;
    Some sb

let find_victim t ~max_fullness ~protect_last =
  match Dlist.peek_front t.empties with
  | Some sb -> Some sb
  | None ->
    let eligible sb =
      Superblock.fullness sb <= max_fullness
      && ((not protect_last) || t.class_counts.(Superblock.sclass sb) > 1)
    in
    let rec scan bin =
      if bin >= ngroups then None
      else if float_of_int bin /. float_of_int ngroups > max_fullness then None
      else
        let found = ref None in
        let each_class bins =
          if !found = None && Array.length bins > 0 then
            match Dlist.find eligible bins.(bin) with
            | Some sb -> found := Some sb
            | None -> ()
        in
        Array.iter each_class t.groups;
        (match !found with
         | Some sb -> Some sb
         | None -> scan (bin + 1))
    in
    scan 0

let has_victim t ~max_fullness ~protect_last = find_victim t ~max_fullness ~protect_last <> None

let pick_victim ?(protect_last = false) t ~max_fullness =
  match find_victim t ~max_fullness ~protect_last with
  | None -> None
  | Some sb ->
    remove t sb;
    Some sb

let iter t f =
  Array.iter (fun bins -> Array.iter (fun l -> Dlist.iter f l) bins) t.groups;
  Dlist.iter f t.empties

let class_totals ~nclasses iter =
  let count = Array.make nclasses 0 and used = Array.make nclasses 0 and blocks = Array.make nclasses 0 in
  iter (fun sb ->
      let c = Superblock.sclass sb in
      count.(c) <- count.(c) + 1;
      used.(c) <- used.(c) + Superblock.used sb;
      blocks.(c) <- blocks.(c) + Superblock.n_blocks sb);
  (count, used, blocks)

let class_profile ~nclasses iter =
  let count, used, blocks = class_totals ~nclasses iter in
  Array.init nclasses (fun c ->
      (count.(c), if blocks.(c) = 0 then 0. else float_of_int used.(c) /. float_of_int blocks.(c)))

let check t =
  let held = ref 0 and in_use = ref 0 and usable = ref 0 in
  let visit expected_bin sb =
    Superblock.check sb;
    if Superblock.owner sb <> t.heap_id then failwith "Heap_core.check: wrong owner";
    if Superblock.group_index sb <> expected_bin then failwith "Heap_core.check: group index mismatch";
    if bin_of sb <> expected_bin then failwith "Heap_core.check: superblock in wrong group";
    if Superblock.sb_size sb <> t.sbsz then failwith "Heap_core.check: wrong superblock size";
    held := !held + Superblock.sb_size sb;
    in_use := !in_use + contribution sb;
    usable := !usable + usable_contribution sb
  in
  Array.iteri
    (fun sclass bins ->
      Array.iteri
        (fun bin l ->
          Dlist.iter
            (fun sb ->
              if Superblock.sclass sb <> sclass then failwith "Heap_core.check: superblock in wrong class list";
              visit bin sb)
            l)
        bins)
    t.groups;
  Dlist.iter
    (fun sb ->
      if not (Superblock.is_empty sb) then failwith "Heap_core.check: non-empty superblock in empties pool";
      visit empties_bin sb)
    t.empties;
  if !held <> t.held then failwith "Heap_core.check: held bytes mismatch";
  if !in_use <> t.in_use then failwith "Heap_core.check: in-use bytes mismatch";
  if !usable <> t.usable then failwith "Heap_core.check: usable bytes mismatch";
  let counts = Array.make (Size_class.count t.classes) 0 in
  iter t (fun sb -> counts.(Superblock.sclass sb) <- counts.(Superblock.sclass sb) + 1);
  if counts <> t.class_counts then failwith "Heap_core.check: class counts mismatch"
