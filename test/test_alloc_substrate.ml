(* Size classes, superblocks, heap cores, the superblock registry and the
   large-object path. *)

let classes = Size_class.create ~max_small:4096 ()

(* --- Size_class --- *)

let test_size_class_monotone () =
  let sizes = Size_class.sizes classes in
  for i = 1 to Array.length sizes - 1 do
    Alcotest.(check bool) "strictly increasing" true (sizes.(i) > sizes.(i - 1))
  done;
  Alcotest.(check int) "first is 8" 8 sizes.(0);
  Alcotest.(check int) "last is max_small" 4096 sizes.(Array.length sizes - 1)

let test_size_class_alignment () =
  Array.iter (fun s -> Alcotest.(check int) "8-aligned" 0 (s mod 8)) (Size_class.sizes classes)

let test_size_class_roundtrip =
  QCheck.Test.make ~name:"class_of_size returns smallest fitting class" ~count:500 (QCheck.int_range 1 4096)
    (fun size ->
      let c = Size_class.class_of_size classes size in
      let bs = Size_class.size_of_class classes c in
      bs >= size && (c = 0 || Size_class.size_of_class classes (c - 1) < size))

let test_size_class_growth_bounded =
  QCheck.Test.make ~name:"internal fragmentation bounded by growth factor" ~count:500 (QCheck.int_range 8 4096)
    (fun size ->
      let c = Size_class.class_of_size classes size in
      let bs = Size_class.size_of_class classes c in
      float_of_int bs <= (1.2 *. float_of_int size) +. 8.0)

let test_size_class_lut_matches_search () =
  (* The O(1) lookup table must agree with the binary-search builder on
     every representable request size. *)
  for size = 1 to 4096 do
    Alcotest.(check int)
      (Printf.sprintf "class_of_size %d" size)
      (Size_class.class_of_size_search classes size)
      (Size_class.class_of_size classes size)
  done

let test_size_class_zero_and_overflow () =
  Alcotest.(check int) "0 treated as 1" 0 (Size_class.class_of_size classes 0);
  Alcotest.check_raises "oversize" (Invalid_argument "Size_class.class_of_size: request exceeds max_small")
    (fun () -> ignore (Size_class.class_of_size classes 4097))

(* --- Superblock --- *)

let mk_sb ?(block_size = 64) () = Superblock.create ~base:(16 * 8192) ~sb_size:8192 ~sclass:3 ~block_size

let test_sb_capacity () =
  let sb = mk_sb () in
  Alcotest.(check int) "capacity" ((8192 - 64) / 64) (Superblock.n_blocks sb);
  Alcotest.(check bool) "empty" true (Superblock.is_empty sb)

let test_sb_alloc_free_roundtrip () =
  let sb = mk_sb () in
  let a = Superblock.alloc_block sb in
  Alcotest.(check bool) "in range" true (Superblock.contains sb a);
  Alcotest.(check bool) "live" true (Superblock.is_block_live sb a);
  Alcotest.(check int) "used" 1 (Superblock.used sb);
  Superblock.free_block sb a;
  Alcotest.(check int) "back to empty" 0 (Superblock.used sb);
  Alcotest.(check bool) "not live" false (Superblock.is_block_live sb a)

let test_sb_fills_exactly () =
  let sb = mk_sb () in
  let n = Superblock.n_blocks sb in
  let addrs = Array.init n (fun _ -> Superblock.alloc_block sb) in
  Alcotest.(check bool) "full" true (Superblock.is_full sb);
  Alcotest.check_raises "overflow" (Failure "Superblock.alloc_block: full") (fun () ->
      ignore (Superblock.alloc_block sb));
  (* All addresses distinct and block-aligned. *)
  let sorted = Array.copy addrs in
  Array.sort compare sorted;
  for i = 1 to n - 1 do
    Alcotest.(check bool) "distinct" true (sorted.(i) > sorted.(i - 1))
  done;
  Array.iter (fun a -> Alcotest.(check int) "aligned" 0 ((a - Superblock.base sb - 64) mod 64)) addrs

let test_sb_double_free_detected () =
  let sb = mk_sb () in
  let a = Superblock.alloc_block sb in
  Superblock.free_block sb a;
  Alcotest.check_raises "double free" (Failure "Superblock.free_block: double free") (fun () ->
      Superblock.free_block sb a)

let test_sb_foreign_addr_rejected () =
  let sb = mk_sb () in
  ignore (Superblock.alloc_block sb);
  Alcotest.check_raises "outside" (Invalid_argument "Superblock: address outside block area") (fun () ->
      Superblock.free_block sb 0);
  let base = Superblock.base sb in
  Alcotest.check_raises "misaligned" (Invalid_argument "Superblock: address not at a block boundary") (fun () ->
      Superblock.free_block sb (base + 64 + 4))

let test_sb_lifo_reuse () =
  let sb = mk_sb () in
  let a = Superblock.alloc_block sb in
  let _b = Superblock.alloc_block sb in
  Superblock.free_block sb a;
  Alcotest.(check int) "LIFO: last freed reused first" a (Superblock.alloc_block sb)

let test_sb_reinit () =
  let sb = mk_sb ~block_size:64 () in
  let a = Superblock.alloc_block sb in
  Alcotest.check_raises "reinit busy" (Failure "Superblock.reinit: superblock not empty") (fun () ->
      Superblock.reinit sb ~sclass:0 ~block_size:8);
  Superblock.free_block sb a;
  Superblock.reinit sb ~sclass:0 ~block_size:8;
  Alcotest.(check int) "new capacity" ((8192 - 64) / 8) (Superblock.n_blocks sb);
  Alcotest.(check int) "new class" 0 (Superblock.sclass sb);
  let a = Superblock.alloc_block sb in
  Alcotest.(check bool) "allocates again" true (Superblock.contains sb a)

let test_sb_reformat () =
  let sb = mk_sb ~block_size:64 () in
  Superblock.set_owner sb 2;
  let a = Superblock.alloc_block sb in
  Alcotest.check_raises "reformat busy" (Failure "Superblock.reformat: superblock not empty") (fun () ->
      Superblock.reformat sb ~sclass:0 ~block_size:8);
  Superblock.free_block sb a;
  Superblock.reformat sb ~sclass:0 ~block_size:8;
  Alcotest.(check int) "new capacity" ((8192 - 64) / 8) (Superblock.n_blocks sb);
  Alcotest.(check int) "new class" 0 (Superblock.sclass sb);
  Alcotest.(check int) "ownership severed" (-1) (Superblock.owner sb);
  Alcotest.(check int) "grouping severed" (-1) (Superblock.group_index sb);
  Alcotest.(check bool) "stale block not live" false (Superblock.is_block_live sb a);
  let b = Superblock.alloc_block sb in
  Alcotest.(check bool) "allocates again" true (Superblock.contains sb b);
  Superblock.check sb

let test_sb_model =
  QCheck.Test.make ~name:"Superblock matches set model under random ops" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let sb = Superblock.create ~base:0 ~sb_size:4096 ~sclass:0 ~block_size:128 in
      let live = ref [] in
      List.iter
        (fun do_alloc ->
          if do_alloc && not (Superblock.is_full sb) then live := Superblock.alloc_block sb :: !live
          else
            match !live with
            | a :: rest ->
              Superblock.free_block sb a;
              live := rest
            | [] -> ())
        ops;
      Superblock.check sb;
      Superblock.used sb = List.length !live
      && List.for_all (fun a -> Superblock.is_block_live sb a) !live
      && List.sort_uniq compare !live = List.sort compare !live)

(* --- Superblock fullness and fullness-group boundary math ---

   Locked in before the global-heap refactor swaps callers: the lock-free
   global index must bin superblocks exactly as Heap_core always has. *)

let test_sb_fullness_math () =
  let sb = mk_sb () in
  let cap = Superblock.n_blocks sb in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Superblock.fullness sb);
  let addrs = Array.init cap (fun _ -> Superblock.alloc_block sb) in
  Alcotest.(check (float 1e-9)) "full" 1.0 (Superblock.fullness sb);
  Superblock.free_block sb addrs.(0);
  Alcotest.(check (float 1e-9))
    "one below full"
    (float_of_int (cap - 1) /. float_of_int cap)
    (Superblock.fullness sb);
  Alcotest.(check bool) "not full" false (Superblock.is_full sb);
  Alcotest.(check bool) "not empty" false (Superblock.is_empty sb)

let test_bin_index_boundaries () =
  let ngroups = 8 and cap = 127 in
  let bin used = Heap_core.bin_index ~ngroups ~used ~cap in
  Alcotest.(check int) "empty is the empties bin" (Heap_core.empties_bin_index ~ngroups) (bin 0);
  Alcotest.(check int) "empties bin is ngroups+1" (ngroups + 1) (Heap_core.empties_bin_index ~ngroups);
  Alcotest.(check int) "full is the full bin" (Heap_core.full_bin_index ~ngroups) (bin cap);
  Alcotest.(check int) "full bin is ngroups" ngroups (Heap_core.full_bin_index ~ngroups);
  Alcotest.(check int) "one block is bin 0" 0 (bin 1);
  Alcotest.(check int) "one below full is last partial bin" (ngroups - 1) (bin (cap - 1));
  (* Exact group boundaries: used = ceil(k * cap / ngroups) is the first
     occupancy in bin k. *)
  for k = 1 to ngroups - 1 do
    let first_in_k = ((k * cap) + ngroups - 1) / ngroups in
    Alcotest.(check int) (Printf.sprintf "first occupancy of bin %d" k) k (bin first_in_k);
    Alcotest.(check int) (Printf.sprintf "below the bin-%d boundary" k) (k - 1) (bin (first_in_k - 1))
  done

let test_bin_index_single_group () =
  (* ngroups = 1 degenerates to empty / partial / full. *)
  for used = 1 to 9 do
    Alcotest.(check int) "partial" 0 (Heap_core.bin_index ~ngroups:1 ~used ~cap:10)
  done;
  Alcotest.(check int) "empty" 2 (Heap_core.bin_index ~ngroups:1 ~used:0 ~cap:10);
  Alcotest.(check int) "full" 1 (Heap_core.bin_index ~ngroups:1 ~used:10 ~cap:10)

let test_bin_index_model =
  QCheck.Test.make ~name:"bin_index is monotone, in range, and agrees with fullness" ~count:500
    QCheck.(pair (int_range 1 16) (int_range 1 1000))
    (fun (ngroups, cap) ->
      let ok = ref true in
      let prev = ref (-1) in
      for used = 0 to cap do
        let b = Heap_core.bin_index ~ngroups ~used ~cap in
        (* Range: partials in [0, ngroups), full = ngroups, empty = ngroups+1. *)
        (if used = 0 then ok := !ok && b = ngroups + 1
         else if used = cap then ok := !ok && b = ngroups
         else begin
           ok := !ok && b >= 0 && b < ngroups;
           (* Partial bins equal the floor of fullness * ngroups. *)
           ok := !ok && b = used * ngroups / cap;
           (* Monotone over the partial range. *)
           if !prev >= 0 then ok := !ok && b >= !prev;
           prev := b
         end)
      done;
      !ok)

(* Heap_core.bin placement must agree with the pure math on a real
   superblock as occupancy sweeps the whole range. *)
let test_heap_core_binning_matches_bin_index () =
  let heap = Heap_core.create ~id:1 ~classes ~sb_size:8192 () in
  let sb = Superblock.create ~base:8192 ~sb_size:8192 ~sclass:5 ~block_size:512 in
  Heap_core.insert heap sb;
  let ngroups = Heap_core.ngroups heap in
  let cap = Superblock.n_blocks sb in
  let addrs = ref [] in
  for used = 1 to cap do
    (match Heap_core.malloc heap ~sclass:5 ~block_size:512 with
     | Some (a, _) -> addrs := a :: !addrs
     | None -> Alcotest.fail "heap ran dry");
    Alcotest.(check int)
      (Printf.sprintf "group at used=%d" used)
      (Heap_core.bin_index ~ngroups ~used ~cap)
      (Superblock.group_index sb)
  done;
  List.iter
    (fun a ->
      Heap_core.free heap sb a;
      Alcotest.(check int)
        (Printf.sprintf "group at used=%d (freeing)" (Superblock.used sb))
        (Heap_core.bin_index ~ngroups ~used:(Superblock.used sb) ~cap)
        (Superblock.group_index sb))
    !addrs;
  Heap_core.check heap

(* --- Heap_core --- *)

let mk_heap () = Heap_core.create ~id:1 ~classes ~sb_size:8192 ()

let new_sb_for heap sclass serial =
  let block_size = Size_class.size_of_class classes sclass in
  let sb = Superblock.create ~base:(serial * 8192) ~sb_size:8192 ~sclass ~block_size in
  Heap_core.insert heap sb;
  sb

let test_heap_malloc_from_inserted () =
  let heap = mk_heap () in
  let _sb = new_sb_for heap 0 1 in
  match Heap_core.malloc heap ~sclass:0 ~block_size:8 with
  | Some (addr, sb) ->
    Alcotest.(check bool) "addr in sb" true (Superblock.contains sb addr);
    Alcotest.(check int) "u" 8 (Heap_core.u heap);
    Alcotest.(check int) "a" 8192 (Heap_core.a heap);
    Heap_core.check heap
  | None -> Alcotest.fail "expected allocation"

let test_heap_malloc_empty_heap () =
  let heap = mk_heap () in
  Alcotest.(check bool) "nothing to allocate" true (Heap_core.malloc heap ~sclass:0 ~block_size:8 = None)

let test_heap_prefers_fuller_superblock () =
  let heap = mk_heap () in
  let sb1 = new_sb_for heap 5 1 in
  let sb2 = new_sb_for heap 5 2 in
  (* Fill sb1 to ~60%, sb2 to ~20%. *)
  let fill sb frac =
    let n = int_of_float (frac *. float_of_int (Superblock.n_blocks sb)) in
    for _ = 1 to n do
      ignore (Superblock.alloc_block sb)
    done
  in
  (* Re-insert after manual filling so groups are correct. *)
  Heap_core.remove heap sb1;
  Heap_core.remove heap sb2;
  fill sb1 0.6;
  fill sb2 0.2;
  Heap_core.insert heap sb1;
  Heap_core.insert heap sb2;
  (match Heap_core.malloc heap ~sclass:5 ~block_size:(Size_class.size_of_class classes 5) with
   | Some (_, sb) -> Alcotest.(check bool) "picked the fuller one" true (sb == sb1)
   | None -> Alcotest.fail "expected allocation");
  Heap_core.check heap

let test_heap_recycles_empty_for_other_class () =
  let heap = mk_heap () in
  let _sb = new_sb_for heap 0 1 in
  (* The empty superblock of class 0 must serve a class-7 request. *)
  match Heap_core.malloc heap ~sclass:7 ~block_size:(Size_class.size_of_class classes 7) with
  | Some (_, sb) ->
    Alcotest.(check int) "reinitialised" 7 (Superblock.sclass sb);
    Heap_core.check heap
  | None -> Alcotest.fail "expected recycling"

let test_heap_pick_victim_prefers_empty () =
  let heap = mk_heap () in
  let sb_busy = new_sb_for heap 0 1 in
  let _sb_empty = new_sb_for heap 0 2 in
  (match Heap_core.malloc heap ~sclass:0 ~block_size:8 with
   | Some _ -> ()
   | None -> Alcotest.fail "alloc");
  ignore sb_busy;
  (* One superblock now has a live block, the other is still empty. A
     victim capped at 50% fullness must be the empty one (empties first). *)
  match Heap_core.pick_victim heap ~max_fullness:0.5 with
  | Some victim ->
    Alcotest.(check bool) "victim is the empty superblock" true (Superblock.is_empty victim);
    Alcotest.(check int) "a dropped" 8192 (Heap_core.a heap);
    Heap_core.check heap
  | None -> Alcotest.fail "expected a victim"

let test_heap_pick_victim_respects_fullness () =
  let heap = mk_heap () in
  let sb = new_sb_for heap 5 1 in
  Heap_core.remove heap sb;
  let n = Superblock.n_blocks sb in
  for _ = 1 to n - 1 do
    ignore (Superblock.alloc_block sb)
  done;
  Heap_core.insert heap sb;
  Alcotest.(check bool) "no victim below 50% emptiness" true (Heap_core.pick_victim heap ~max_fullness:0.5 = None)

let test_heap_take_for_class () =
  let heap = mk_heap () in
  let _sb0 = new_sb_for heap 0 1 in
  (match Heap_core.malloc heap ~sclass:0 ~block_size:8 with
   | Some _ -> ()
   | None -> Alcotest.fail "alloc");
  (match Heap_core.take_for_class heap ~sclass:0 with
   | Some sb ->
     Alcotest.(check int) "partial of the class" 0 (Superblock.sclass sb);
     Alcotest.(check int) "heap emptied" 0 (Heap_core.a heap)
   | None -> Alcotest.fail "expected superblock");
  Alcotest.(check bool) "nothing left" true (Heap_core.take_for_class heap ~sclass:0 = None)

let test_heap_free_repositions () =
  let heap = mk_heap () in
  let _sb = new_sb_for heap 0 1 in
  let live = ref [] in
  for _ = 1 to 100 do
    match Heap_core.malloc heap ~sclass:0 ~block_size:8 with
    | Some (a, sb) -> live := (a, sb) :: !live
    | None -> Alcotest.fail "alloc"
  done;
  Heap_core.check heap;
  List.iter (fun (a, sb) -> Heap_core.free heap sb a) !live;
  Heap_core.check heap;
  Alcotest.(check int) "all free" 0 (Heap_core.u heap);
  Alcotest.(check int) "superblock back in empties" 1 (Heap_core.empty_superblock_count heap)

let test_heap_accounting_model =
  QCheck.Test.make ~name:"Heap_core u/a accounting matches model" ~count:100
    QCheck.(list (pair (int_range 0 8) bool))
    (fun ops ->
      let heap = mk_heap () in
      let serial = ref 1 in
      let live = ref [] in
      List.iter
        (fun (sclass, do_alloc) ->
          let block_size = Size_class.size_of_class classes sclass in
          if do_alloc then begin
            (match Heap_core.malloc heap ~sclass ~block_size with
             | Some (a, sb) -> live := (a, sb, block_size) :: !live
             | None ->
               incr serial;
               ignore (new_sb_for heap sclass !serial);
               (match Heap_core.malloc heap ~sclass ~block_size with
                | Some (a, sb) -> live := (a, sb, block_size) :: !live
                | None -> failwith "alloc after insert"))
          end
          else
            match !live with
            | (a, sb, _) :: rest ->
              Heap_core.free heap sb a;
              live := rest
            | [] -> ())
        ops;
      Heap_core.check heap;
      Heap_core.u heap = List.fold_left (fun acc (_, _, bs) -> acc + bs) 0 !live)

let test_heap_pick_victim_protect_last () =
  let heap = mk_heap () in
  let _sb = new_sb_for heap 3 1 in
  (match Heap_core.malloc heap ~sclass:3 ~block_size:(Size_class.size_of_class classes 3) with
   | Some _ -> ()
   | None -> Alcotest.fail "alloc");
  (* One partial superblock, sole member of its class: protected. *)
  Alcotest.(check bool) "protected last sb not picked" true
    (Heap_core.pick_victim ~protect_last:true heap ~max_fullness:0.9 = None);
  Alcotest.(check bool) "has_victim agrees" false (Heap_core.has_victim heap ~max_fullness:0.9 ~protect_last:true);
  (* Without protection it is eligible. *)
  (match Heap_core.pick_victim heap ~max_fullness:0.9 with
   | Some _ -> ()
   | None -> Alcotest.fail "unprotected pick should succeed");
  Heap_core.check heap

let test_heap_pick_victim_protect_last_allows_empties () =
  let heap = mk_heap () in
  let _sb = new_sb_for heap 3 1 in
  (* Completely empty superblock: always transferable, even when last. *)
  match Heap_core.pick_victim ~protect_last:true heap ~max_fullness:0.0 with
  | Some sb -> Alcotest.(check bool) "empty picked" true (Superblock.is_empty sb)
  | None -> Alcotest.fail "empty superblock must be transferable"

let test_heap_pick_victim_second_sb_eligible () =
  let heap = mk_heap () in
  let _a = new_sb_for heap 3 1 in
  let _b = new_sb_for heap 3 2 in
  (match Heap_core.malloc heap ~sclass:3 ~block_size:(Size_class.size_of_class classes 3) with
   | Some _ -> ()
   | None -> Alcotest.fail "alloc");
  (match Heap_core.malloc heap ~sclass:3 ~block_size:(Size_class.size_of_class classes 3) with
   | Some _ -> ()
   | None -> Alcotest.fail "alloc");
  (* Both blocks land in one sb (fullest-first); the other stays empty and
     is picked. With two sbs in the class, protection does not apply. *)
  match Heap_core.pick_victim ~protect_last:true heap ~max_fullness:0.9 with
  | Some _ -> Heap_core.check heap
  | None -> Alcotest.fail "victim expected with two superblocks in class"

let test_heap_usable_accounting () =
  let heap = mk_heap () in
  let sb = new_sb_for heap 0 1 in
  Alcotest.(check int) "usable = blocks * size" (Superblock.n_blocks sb * 8) (Heap_core.usable_a heap);
  Heap_core.remove heap sb;
  Alcotest.(check int) "usable zero after remove" 0 (Heap_core.usable_a heap)

(* --- Locked_large --- *)

let test_locked_large_threshold () =
  let pf = Platform.host () in
  let stats = Alloc_stats.create () in
  let ll = Locked_large.create pf ~owner:11 ~stats ~threshold:4096 in
  Alcotest.(check bool) "4096 is small" false (Locked_large.is_large ll 4096);
  Alcotest.(check bool) "4097 is large" true (Locked_large.is_large ll 4097);
  let p = Locked_large.malloc ll 5000 in
  Alcotest.(check (option int)) "usable" (Some 5000) (Locked_large.usable_size ll ~addr:p);
  Alcotest.(check bool) "free hit" true (Locked_large.try_free ll ~addr:p);
  Alcotest.(check bool) "second free miss" false (Locked_large.try_free ll ~addr:p);
  Alcotest.(check int) "no live bytes" 0 (Locked_large.live_bytes ll)

(* --- Sb_registry --- *)

let test_registry_lookup () =
  let reg = Sb_registry.create (Platform.host ()) ~sb_size:8192 in
  let sb = Superblock.create ~base:(8192 * 5) ~sb_size:8192 ~sclass:0 ~block_size:8 in
  Sb_registry.register reg sb;
  (match Sb_registry.lookup reg ~addr:((8192 * 5) + 4000) with
   | Some found -> Alcotest.(check bool) "same superblock" true (found == sb)
   | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss elsewhere" true (Sb_registry.lookup reg ~addr:(8192 * 7) = None);
  Sb_registry.unregister reg sb;
  Alcotest.(check bool) "gone" true (Sb_registry.lookup reg ~addr:(8192 * 5) = None)

let test_registry_duplicate_rejected () =
  let reg = Sb_registry.create (Platform.host ()) ~sb_size:8192 in
  let sb = Superblock.create ~base:8192 ~sb_size:8192 ~sclass:0 ~block_size:8 in
  Sb_registry.register reg sb;
  Alcotest.check_raises "duplicate" (Invalid_argument "Sb_registry.register: slot already occupied") (fun () ->
      Sb_registry.register reg sb)

(* --- Large objects --- *)

let test_large_roundtrip () =
  let pf = Platform.host () in
  let stats = Alloc_stats.create () in
  let large = Large_alloc.create pf ~owner:9 ~stats ~shard:(Alloc_stats.shard stats 0) in
  let a = Large_alloc.malloc large 10_000 in
  Alcotest.(check (option int)) "usable" (Some 10_000) (Large_alloc.usable_size large ~addr:a);
  Alcotest.(check int) "one live" 1 (Large_alloc.live_count large);
  let s = Alloc_stats.snapshot stats in
  Alcotest.(check int) "held page-rounded" 12_288 s.Alloc_stats.held_bytes;
  Alcotest.(check bool) "free" true (Large_alloc.free large ~addr:a);
  Alcotest.(check bool) "double free is miss" false (Large_alloc.free large ~addr:a);
  let s = Alloc_stats.snapshot stats in
  Alcotest.(check int) "held back to zero" 0 s.Alloc_stats.held_bytes

(* --- Global_index.free_run --- *)

(* A host platform whose index atomics count successful CASes on the
   entry-stack heads ("gidx.c<class>b<bin>", "gidx.empties"): during a
   free only pushes touch them, so the count is the entries pushed. *)
let gidx_counting () =
  let pf = Platform.host () in
  let entry_pushes = ref 0 in
  let is_head name = name = "gidx.empties" || Astring.String.is_prefix ~affix:"gidx.c" name in
  let new_atomic name init =
    let a = pf.Platform.new_atomic name init in
    if not (is_head name) then a
    else
      {
        a with
        Platform.cas =
          (fun ~expected ~desired ->
            let ok = a.Platform.cas ~expected ~desired in
            if ok then incr entry_pushes;
            ok);
      }
  in
  let gi = Global_index.create { pf with Platform.new_atomic } ~name:"gidx" ~nclasses:1 ~ngroups:2 () in
  (gi, entry_pushes)

(* A full member of class 0: 512 B blocks in a 4 KiB superblock. *)
let full_member gi ~base =
  let sb = Superblock.create ~base ~sb_size:4096 ~sclass:0 ~block_size:512 in
  let addrs = List.init (Superblock.n_blocks sb) (fun _ -> Superblock.alloc_block sb) in
  Global_index.publish gi sb;
  (sb, addrs)

let freed = function
  | Global_index.Freed { now_empty } -> Some now_empty
  | Global_index.Requeue | Global_index.Not_member _ -> None

let test_free_run_one_rebin_entry () =
  let gi, entry_pushes = gidx_counting () in
  let sb, addrs = full_member gi ~base:4096 in
  let n = List.length addrs in
  Alcotest.(check int) "u_bytes counts the member" (n * 512) (Global_index.u_bytes gi);
  (* Every block but one: the run crosses from the full bin through each
     partial bin, yet pushes one entry, for the bin it ends in. *)
  let run = List.tl addrs in
  let pushed = !entry_pushes in
  Alcotest.(check (option bool)) "freed, not empty" (Some false) (freed (Global_index.free_run gi sb ~addrs:run));
  Alcotest.(check int) "one re-bin entry" 1 (!entry_pushes - pushed);
  Alcotest.(check int) "u_bytes drops by the run" 512 (Global_index.u_bytes gi);
  Alcotest.(check int) "one block live" 1 (Superblock.used sb);
  Global_index.check gi

let test_free_run_empties_once () =
  let gi, entry_pushes = gidx_counting () in
  let sb, addrs = full_member gi ~base:4096 in
  List.iter (Superblock.mark_cached sb) addrs;
  let pushed = !entry_pushes in
  let insides = ref 0 in
  Alcotest.(check (option bool)) "freed, now empty" (Some true)
    (freed (Global_index.free_run gi sb ~addrs ~inside:(fun () -> incr insides)));
  Alcotest.(check int) "inside ran once" 1 !insides;
  Alcotest.(check int) "empties rose once" 1 (Global_index.empties gi);
  Alcotest.(check int) "one entry, on the empties stack" 1 (!entry_pushes - pushed);
  Alcotest.(check int) "u_bytes back to zero" 0 (Global_index.u_bytes gi);
  Alcotest.(check bool) "custody marks cleared" false (List.exists (Superblock.is_block_cached sb) addrs);
  Global_index.check gi

(* Blocks a refused run must leave exactly as they were. *)
let check_untouched label sb addrs =
  List.iter
    (fun a ->
      Alcotest.(check bool) (label ^ ": still live") true (Superblock.is_block_live sb a);
      Alcotest.(check bool) (label ^ ": still custody-marked") true (Superblock.is_block_cached sb a))
    addrs

let test_free_run_busy_requeues () =
  let gi, _ = gidx_counting () in
  let sb, addrs = full_member gi ~base:4096 in
  let first = [ List.nth addrs 0; List.nth addrs 1 ] and second = [ List.nth addrs 2; List.nth addrs 3 ] in
  List.iter (Superblock.mark_cached sb) second;
  (* The second run arrives while the first holds the word Busy. *)
  let inner = ref None in
  let outer =
    Global_index.free_run gi sb ~addrs:first ~inside:(fun () ->
        inner := Some (Global_index.free_run gi sb ~addrs:second ~inside:(fun () -> Alcotest.fail "inside ran")))
  in
  Alcotest.(check (option bool)) "outer freed" (Some false) (freed outer);
  Alcotest.(check bool) "inner requeued" true (!inner = Some Global_index.Requeue);
  check_untouched "busy" sb second;
  Alcotest.(check int) "u_bytes: the outer run only" ((Superblock.n_blocks sb - 2) * 512) (Global_index.u_bytes gi);
  Global_index.check gi

let test_free_run_absent_not_member () =
  let gi, _ = gidx_counting () in
  let sb, addrs = full_member gi ~base:4096 in
  (* Make it allocatable, then claim it away. *)
  (match Global_index.free_run gi sb ~addrs:[ List.hd addrs ] with
   | Global_index.Freed _ -> ()
   | _ -> Alcotest.fail "setup free");
  (match Global_index.acquire gi ~sclass:0 with
   | Some s -> Alcotest.(check bool) "claimed the member" true (s == sb)
   | None -> Alcotest.fail "acquire missed the member");
  Superblock.set_owner sb 3;
  let run = [ List.nth addrs 1; List.nth addrs 2 ] in
  List.iter (Superblock.mark_cached sb) run;
  (match Global_index.free_run gi sb ~addrs:run ~inside:(fun () -> Alcotest.fail "inside ran") with
   | Global_index.Not_member { owner } -> Alcotest.(check int) "names the new owner" 3 owner
   | _ -> Alcotest.fail "an Absent word must answer Not_member");
  check_untouched "absent" sb run;
  Alcotest.(check int) "no members" 0 (Global_index.members gi);
  Global_index.check gi

let () =
  Alcotest.run "alloc-substrate"
    [
      ( "size-class",
        [
          Alcotest.test_case "monotone" `Quick test_size_class_monotone;
          Alcotest.test_case "alignment" `Quick test_size_class_alignment;
          Alcotest.test_case "zero/overflow" `Quick test_size_class_zero_and_overflow;
          Alcotest.test_case "LUT matches binary search" `Quick test_size_class_lut_matches_search;
          QCheck_alcotest.to_alcotest test_size_class_roundtrip;
          QCheck_alcotest.to_alcotest test_size_class_growth_bounded;
        ] );
      ( "superblock",
        [
          Alcotest.test_case "capacity" `Quick test_sb_capacity;
          Alcotest.test_case "roundtrip" `Quick test_sb_alloc_free_roundtrip;
          Alcotest.test_case "fills exactly" `Quick test_sb_fills_exactly;
          Alcotest.test_case "double free" `Quick test_sb_double_free_detected;
          Alcotest.test_case "foreign addr" `Quick test_sb_foreign_addr_rejected;
          Alcotest.test_case "LIFO reuse" `Quick test_sb_lifo_reuse;
          Alcotest.test_case "reinit" `Quick test_sb_reinit;
          Alcotest.test_case "reformat" `Quick test_sb_reformat;
          Alcotest.test_case "fullness math" `Quick test_sb_fullness_math;
          QCheck_alcotest.to_alcotest test_sb_model;
        ] );
      ( "fullness-bins",
        [
          Alcotest.test_case "boundaries" `Quick test_bin_index_boundaries;
          Alcotest.test_case "single group" `Quick test_bin_index_single_group;
          Alcotest.test_case "heap-core agreement" `Quick test_heap_core_binning_matches_bin_index;
          QCheck_alcotest.to_alcotest test_bin_index_model;
        ] );
      ( "heap-core",
        [
          Alcotest.test_case "malloc from inserted" `Quick test_heap_malloc_from_inserted;
          Alcotest.test_case "empty heap" `Quick test_heap_malloc_empty_heap;
          Alcotest.test_case "prefers fuller" `Quick test_heap_prefers_fuller_superblock;
          Alcotest.test_case "recycles across classes" `Quick test_heap_recycles_empty_for_other_class;
          Alcotest.test_case "victim prefers empty" `Quick test_heap_pick_victim_prefers_empty;
          Alcotest.test_case "victim fullness cap" `Quick test_heap_pick_victim_respects_fullness;
          Alcotest.test_case "take for class" `Quick test_heap_take_for_class;
          Alcotest.test_case "free repositions" `Quick test_heap_free_repositions;
          Alcotest.test_case "protect-last" `Quick test_heap_pick_victim_protect_last;
          Alcotest.test_case "protect-last empties" `Quick test_heap_pick_victim_protect_last_allows_empties;
          Alcotest.test_case "second sb eligible" `Quick test_heap_pick_victim_second_sb_eligible;
          Alcotest.test_case "usable accounting" `Quick test_heap_usable_accounting;
          QCheck_alcotest.to_alcotest test_heap_accounting_model;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "duplicate" `Quick test_registry_duplicate_rejected;
        ] );
      ( "global-index",
        [
          Alcotest.test_case "free_run pushes one re-bin entry" `Quick test_free_run_one_rebin_entry;
          Alcotest.test_case "free_run empties once" `Quick test_free_run_empties_once;
          Alcotest.test_case "free_run requeues on Busy" `Quick test_free_run_busy_requeues;
          Alcotest.test_case "free_run refuses an Absent word" `Quick test_free_run_absent_not_member;
        ] );
      ( "large",
        [
          Alcotest.test_case "roundtrip" `Quick test_large_roundtrip;
          Alcotest.test_case "locked threshold" `Quick test_locked_large_threshold;
        ] );
    ]
