type t = { table : int array; max_small : int; lut : int array (* size -> class, 0..max_small *) }

let round_up x align = (x + align - 1) / align * align

(* Smallest class with table.(c) >= size: the reference the lookup
   table is tested against. *)
let search table size =
  let lo = ref 0 and hi = ref (Array.length table - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.(mid) >= size then hi := mid else lo := mid + 1
  done;
  !lo

let create ?(min_block = 8) ?(growth = 1.2) ~max_small () =
  if min_block < 8 || min_block mod 8 <> 0 then invalid_arg "Size_class.create: min_block must be a multiple of 8";
  if growth <= 1.0 then invalid_arg "Size_class.create: growth must exceed 1.0";
  if max_small < min_block then invalid_arg "Size_class.create: max_small too small";
  let rec build acc size =
    if size >= max_small then List.rev (max_small :: acc)
    else
      let next =
        if size < 64 then size + min_block
        else max (size + 8) (round_up (int_of_float (ceil (float_of_int size *. growth))) 8)
      in
      build (size :: acc) (min next max_small)
  in
  let table = Array.of_list (build [] min_block) in
  (* One pass over the classes: sizes (table.(c-1), table.(c)] map to c,
     and 0 is treated as 1. *)
  let lut = Array.make (max_small + 1) 0 in
  Array.iteri (fun c hi -> if c > 0 then Array.fill lut (table.(c - 1) + 1) (hi - table.(c - 1)) c) table;
  { table; max_small; lut }

let count t = Array.length t.table

let max_small t = t.max_small

let size_of_class t c = t.table.(c)

let class_of_size t size =
  let size = max size 1 in
  if size > t.max_small then invalid_arg "Size_class.class_of_size: request exceeds max_small";
  Array.unsafe_get t.lut size

let class_of_size_search t size =
  let size = max size 1 in
  if size > t.max_small then invalid_arg "Size_class.class_of_size: request exceeds max_small";
  search t.table size

let sizes t = Array.copy t.table
