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
  (* The O(1) lookup table must agree with the binary search on every
     representable request size: for the default table, a coarse one, a
     [max_small] that is not a class boundary of the geometric series,
     and a fine growth factor with many classes. *)
  let agree label t =
    for size = 0 to Size_class.max_small t do
      Alcotest.(check int)
        (Printf.sprintf "%s: class_of_size %d" label size)
        (Size_class.class_of_size_search t size)
        (Size_class.class_of_size t size)
    done
  in
  agree "default" classes;
  agree "min_block 16, growth 1.5, max_small 2048" (Size_class.create ~min_block:16 ~growth:1.5 ~max_small:2048 ());
  agree "max_small 1000" (Size_class.create ~max_small:1000 ());
  let fine = Size_class.create ~growth:1.05 ~max_small:4096 () in
  Alcotest.(check bool) "growth 1.05 gives many classes" true (Size_class.count fine > 2 * Size_class.count classes);
  agree "growth 1.05" fine

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
  let ngroups = Heap_core.ngroups in
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

(* Host words a thunk allocates on the minor heap: deterministic, unlike
   timings, so a construction-cost guard can be exact. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_heap_create_cost_per_class () =
  (* A heap makes a class's fullness lists on the class's first insert,
     so an unused class costs a heap a couple of words, not its lists. *)
  let fine = Size_class.create ~growth:1.05 ~max_small:4096 () in
  let extra = Size_class.count fine - Size_class.count classes in
  let words classes = minor_words (fun () -> Heap_core.create ~id:1 ~classes ~sb_size:8192 ()) in
  let per_class = (words fine -. words classes) /. float_of_int extra in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per extra class (%d extra classes)" per_class extra)
    true (per_class <= 4.0)

let test_global_index_create_no_minor_gc () =
  (* The index of a default hoard-gl heap set (30 classes, 8 groups; only
     the empties stack is built up front) fits the minor heap, so building
     it from an emptied minor heap must not force a collection. *)
  let pf = Platform.host () in
  let forced =
    List.init 20 (fun _ ->
        Gc.minor ();
        let before = (Gc.quick_stat ()).minor_collections in
        ignore (Sys.opaque_identity (Global_index.create pf ~name:"gidx" ~nclasses:30 ()));
        (Gc.quick_stat ()).minor_collections - before)
  in
  Alcotest.(check (list int)) "minor collections per build" (List.init 20 (fun _ -> 0)) forced

let test_heap_one_class_in_use () =
  (* Only class 5 ever gets superblocks: every scan must treat the other
     classes as empty. *)
  let heap = mk_heap () in
  let sbs = List.init 3 (fun i -> new_sb_for heap 5 (i + 1)) in
  List.iteri
    (fun i sb ->
      Heap_core.remove heap sb;
      for _ = 1 to (i + 1) * Superblock.n_blocks sb / 4 do
        ignore (Superblock.alloc_block sb)
      done;
      Heap_core.insert heap sb)
    sbs;
  Heap_core.check heap;
  let seen = ref 0 in
  Heap_core.iter heap (fun _ -> incr seen);
  Alcotest.(check int) "iter visits every superblock" 3 !seen;
  Alcotest.(check bool) "nothing for an unused class" true
    (Heap_core.malloc heap ~sclass:2 ~block_size:(Size_class.size_of_class classes 2) = None);
  let profile = Heap_core.class_profile ~nclasses:(Size_class.count classes) (Heap_core.iter heap) in
  Array.iteri
    (fun c (n, _) -> Alcotest.(check int) (Printf.sprintf "class %d superblocks" c) (if c = 5 then 3 else 0) n)
    profile;
  (match Heap_core.pick_victim heap ~max_fullness:0.5 with
   | Some sb -> Alcotest.(check bool) "emptiest is the victim" true (sb == List.hd sbs)
   | None -> Alcotest.fail "expected a victim");
  Heap_core.check heap;
  (* An empty superblock recycled for an unused class makes that class's
     lists on the way. *)
  let sb = new_sb_for heap 5 4 in
  (match Heap_core.malloc heap ~sclass:7 ~block_size:(Size_class.size_of_class classes 7) with
   | Some (_, sb') -> Alcotest.(check bool) "recycled the empty superblock" true (sb' == sb)
   | None -> Alcotest.fail "expected recycling");
  Heap_core.check heap

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
  let large = Locked_large.create pf ~owner:9 ~stats ~threshold:4096 in
  let a = Locked_large.malloc large 10_000 in
  Alcotest.(check (option int)) "usable" (Some 10_000) (Locked_large.usable_size large ~addr:a);
  Alcotest.(check int) "one live" 1 (Locked_large.live_count large);
  let s = Alloc_stats.snapshot stats in
  Alcotest.(check int) "held page-rounded" 12_288 s.Alloc_stats.held_bytes;
  Alcotest.(check bool) "free" true (Locked_large.try_free large ~addr:a);
  Alcotest.(check bool) "double free is miss" false (Locked_large.try_free large ~addr:a);
  Alcotest.(check int) "none live" 0 (Locked_large.live_count large);
  let s = Alloc_stats.snapshot stats in
  Alcotest.(check int) "held back to zero" 0 s.Alloc_stats.held_bytes

(* --- Lockfree: the shared Treiber pool --- *)

let test_bounded_pool_refuses_when_full () =
  let s = Lockfree.create (Platform.host ()) ~name:"b" ~cap:2 () in
  Alcotest.(check bool) "push 1" true (Lockfree.push s 1);
  Alcotest.(check bool) "push 2" true (Lockfree.push s 2);
  Alcotest.(check bool) "full: refused" false (Lockfree.push s 3);
  Alcotest.(check int) "length" 2 (Lockfree.length s);
  Alcotest.(check int) "refusal is not a push" 2 (Lockfree.pushes s);
  let seen = ref [] in
  Lockfree.iter s (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "stack intact, top first" [ 2; 1 ] (List.rev !seen);
  Alcotest.(check (list (option int))) "pops" [ Some 2; Some 1; None ]
    (List.init 3 (fun _ -> Lockfree.pop s))

let test_growing_pool_lifo_past_first_table () =
  (* The table starts at 8 nodes; 20 pushes make it grow twice. *)
  let p = Lockfree.pool (Platform.host ()) ~name:"g" () in
  let s = (Lockfree.add_stacks p [| "s" |]).(0) in
  for v = 1 to 20 do
    Alcotest.(check bool) "growing pool never refuses" true (Lockfree.push s v)
  done;
  Alcotest.(check bool) "q_push" true (Lockfree.q_push s 21);
  Lockfree.walk p (fun _ _ -> ());
  Alcotest.(check (list (option int))) "LIFO" (List.init 21 (fun i -> Some (21 - i)))
    (List.init 21 (fun _ -> Lockfree.pop s));
  Alcotest.(check (option int)) "empty" None (Lockfree.pop s);
  Lockfree.walk p (fun _ _ -> Alcotest.fail "no live payload left")

let test_walk_rejects_node_on_two_stacks () =
  (* Copy stack a's head word into stack b's: the one node is then
     linked from both stacks of the pool. *)
  let pf = Platform.host () in
  let atomics = Hashtbl.create 8 in
  let new_atomic name init =
    let a = pf.Platform.new_atomic name init in
    Hashtbl.replace atomics name a;
    a
  in
  let p = Lockfree.pool { pf with Platform.new_atomic } ~name:"w" () in
  ignore (Lockfree.push (Lockfree.add_stacks p [| "a"; "b" |]).(0) 7);
  Lockfree.walk p (fun _ _ -> ());
  (Hashtbl.find atomics "w.b").Platform.poke ((Hashtbl.find atomics "w.a").Platform.peek ());
  match Lockfree.walk p (fun _ _ -> ()) with
  | () -> Alcotest.fail "walk accepted a node on two stacks"
  | exception Failure m ->
    Alcotest.(check bool) ("names the duplicate: " ^ m) true (Astring.String.is_infix ~affix:"reachable twice" m)

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
  let gi = Global_index.create { pf with Platform.new_atomic } ~name:"gidx" ~nclasses:1 () in
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

(* --- Global_index and Large_cache: stacks built on first use --- *)

(* A platform that keeps every atomic it creates, by name, and lists
   their names in creation order. *)
let naming pf =
  let made = ref [] in
  let new_atomic name init =
    let a = pf.Platform.new_atomic name init in
    made := (name, a) :: !made;
    a
  in
  ({ pf with Platform.new_atomic }, ((fun () -> List.rev_map fst !made), fun name -> List.assoc name !made))

let class_head c = Printf.sprintf "gidx.c%db0" c

let heads_made names = List.filter (Astring.String.is_prefix ~affix:"gidx.c") names

(* A member of class [sclass] with [used] blocks live (all of them, if
   it has fewer). *)
let publish_member gi ~base ~sclass ~used =
  let sb = Superblock.create ~base ~sb_size:4096 ~sclass ~block_size:512 in
  for _ = 1 to min used (Superblock.n_blocks sb) do
    ignore (Superblock.alloc_block sb)
  done;
  Global_index.publish gi sb;
  sb

let test_fresh_index_holds_empties_only () =
  let pf, (names, _) = naming (Platform.host ()) in
  let gi = Global_index.create pf ~name:"gidx" ~nclasses:30 () in
  Alcotest.(check (list string)) "the free word and the empties head" [ "gidx.free"; "gidx.empties" ] (names ());
  (* An empty member lives on the empties stack: no class is used. *)
  ignore (publish_member gi ~base:4096 ~sclass:4 ~used:0);
  Global_index.check gi;
  Alcotest.(check (list string)) "an empty publish builds no class" [] (heads_made (names ()))

let test_publish_builds_its_class () =
  let pf, (names, _) = naming (Platform.host ()) in
  let gi = Global_index.create pf ~name:"gidx" ~nclasses:30 () in
  let sb = publish_member gi ~base:4096 ~sclass:7 ~used:3 in
  Alcotest.(check (list string)) "class 7's partial head" [ class_head 7 ] (heads_made (names ()));
  ignore (publish_member gi ~base:8192 ~sclass:7 ~used:max_int);
  Alcotest.(check bool) "acquire claims the partial member" true
    (match Global_index.acquire gi ~sclass:7 with Some s -> s == sb | None -> false);
  Alcotest.(check (list string)) "class 7's head is built once" [ class_head 7 ] (heads_made (names ()));
  (* A full member is indexed nowhere, so it builds no head. *)
  ignore (publish_member gi ~base:12288 ~sclass:9 ~used:max_int);
  Alcotest.(check (list string)) "a full publish builds no head" [ class_head 7 ] (heads_made (names ()));
  Global_index.check gi

let test_index_walks_built_stacks () =
  let pf, (names, atomic) = naming (Platform.host ()) in
  let gi = Global_index.create pf ~name:"gidx" ~nclasses:30 () in
  ignore (publish_member gi ~base:4096 ~sclass:3 ~used:1);
  ignore (publish_member gi ~base:8192 ~sclass:7 ~used:1);
  (* A full member of a class never used: check needs no stack for it. *)
  ignore (publish_member gi ~base:12288 ~sclass:5 ~used:max_int);
  Global_index.check gi;
  let seen = ref 0 in
  Global_index.iter_members gi (fun _ -> incr seen);
  Alcotest.(check (pair int int)) "iter_members and members: all three" (3, 3) (!seen, Global_index.members gi);
  Alcotest.(check (list string)) "introspection builds nothing" [ class_head 3; class_head 7 ]
    (heads_made (names ()));
  (* Copying class 7's head into class 3's links class 7's one node from
     two heads, which the walk of the built stacks must find. *)
  (atomic (class_head 3)).Platform.poke ((atomic (class_head 7)).Platform.peek ());
  match Global_index.check gi with
  | () -> Alcotest.fail "check accepted a node on two of the built stacks"
  | exception Failure m ->
    Alcotest.(check bool) ("names the duplicate: " ^ m) true (Astring.String.is_infix ~affix:"reachable twice" m)

(* The first acquire of a class on a fresh index, inside a simulated run:
   processor 1 loads the class's partial head, pops the one empty member
   that processor 0 published, claims it and returns the entry node to
   its own free list, built at that moment. A head built at first use is
   a line no processor has touched, as a head built up front would be.
   With 8 partial heads and one shared free list the same acquire cost
   1,024 cycles: 7 more cold head loads (60 each), and a node returned to
   the shared list, whose line processor 0 had read. *)
let test_first_acquire_cost () =
  let sim = Sim.create ~nprocs:2 () in
  let gi = Global_index.create (Sim.platform sim) ~name:"gidx" ~nclasses:30 () in
  let sb = Superblock.create ~base:8192 ~sb_size:8192 ~sclass:0 ~block_size:8 in
  let b = Sim.new_barrier sim ~parties:2 in
  let claimed = ref None and cycles = ref 0 in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         Global_index.publish gi sb;
         Sim.barrier_wait b));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         let t0 = Sim.now () in
         claimed := Global_index.acquire gi ~sclass:5;
         cycles := Sim.now () - t0));
  Sim.run sim;
  Alcotest.(check bool) "claimed the empty" true (match !claimed with Some s -> s == sb | None -> false);
  Alcotest.(check int) "cycles of the first acquire" 559 !cycles;
  Global_index.check gi

(* A superblock published partial in class 0 and freed empty leaves a
   stale entry on class 0's stack. Class 1 takes it from the empties,
   reinitialises it and publishes it partial, which pushes its own entry
   on class 1's stack. A class-0 acquire that pops the stale entry drops
   it, and records nothing. *)
let test_stale_entry_dropped () =
  let gi = Global_index.create (Platform.host ()) ~name:"gidx" ~nclasses:2 () in
  let events = ref [] in
  let record k ~arg:_ = events := k :: !events in
  let sb = Superblock.create ~base:4096 ~sb_size:4096 ~sclass:0 ~block_size:512 in
  let a = Superblock.alloc_block sb in
  Global_index.publish gi sb;
  Alcotest.(check (option bool)) "freed empty" (Some true) (freed (Global_index.free_run gi sb ~addrs:[ a ]));
  Alcotest.(check bool) "class 1 takes the empty" true
    (match Global_index.acquire gi ~sclass:1 with Some s -> s == sb | None -> false);
  Superblock.reinit sb ~sclass:1 ~block_size:256;
  ignore (Superblock.alloc_block sb);
  Global_index.publish gi sb;
  events := [];
  Alcotest.(check bool) "class 0 finds nothing" true (Global_index.acquire ~record gi ~sclass:0 = None);
  Alcotest.(check int) "one entry: class 1's own" 1 (Global_index.entries gi);
  Alcotest.(check int) "no event" 0 (List.length !events);
  Global_index.check gi;
  Alcotest.(check bool) "class 1 claims it" true
    (match Global_index.acquire gi ~sclass:1 with Some s -> s == sb | None -> false)

(* --- Global_index: per-processor node lists --- *)

(* A host platform whose calling processor is [proc] and whose atomics
   count each costed access (load, store, CAS) by name. *)
let proc_counting ~nprocs =
  let host = Platform.host ~nprocs () in
  let proc = ref 0 and accesses = Hashtbl.create 16 in
  let count name = Hashtbl.replace accesses name (1 + Option.value ~default:0 (Hashtbl.find_opt accesses name)) in
  let new_atomic name init =
    let a = host.Platform.new_atomic name init in
    {
      a with
      Platform.load =
        (fun () ->
          count name;
          a.Platform.load ());
      store =
        (fun v ->
          count name;
          a.Platform.store v);
      cas =
        (fun ~expected ~desired ->
          count name;
          a.Platform.cas ~expected ~desired);
    }
  in
  let pf = { host with Platform.self_proc = (fun () -> !proc); new_atomic } in
  (pf, proc, fun name -> Option.value ~default:0 (Hashtbl.find_opt accesses name))

(* A partial member of class 0: one 512 B block live of eight. *)
let partial_sb ~base =
  let sb = Superblock.create ~base ~sb_size:4096 ~sclass:0 ~block_size:512 in
  ignore (Superblock.alloc_block sb);
  sb

(* Rounds of publish / acquire of one partial member, or of publish full /
   free one block / acquire / allocate it again. A full member is pushed
   nowhere, so the one entry of a round is the free's. *)
let test_own_list_spares_shared_word () =
  List.iter
    (fun full ->
      let label what = Printf.sprintf "%s member: %s" (if full then "full" else "partial") what in
      let pf, _, accesses = proc_counting ~nprocs:1 in
      let gi = Global_index.create pf ~name:"gidx" ~nclasses:1 () in
      let sb = partial_sb ~base:4096 in
      let last = ref (-1) in
      let fill () =
        while not (Superblock.is_full sb) do
          last := Superblock.alloc_block sb
        done
      in
      if full then fill ();
      let round () =
        Global_index.publish gi sb;
        if full then
          Alcotest.(check (option bool)) (label "one block freed") (Some false)
            (freed (Global_index.free_run gi sb ~addrs:[ !last ]));
        Alcotest.(check bool) (label "acquire claims the member") true
          (match Global_index.acquire gi ~sclass:0 with Some s -> s == sb | None -> false);
        if full then fill ()
      in
      round ();
      let before = accesses "gidx.free" in
      for _ = 1 to 100 do
        round ()
      done;
      Alcotest.(check int) (label "one node serves every round") 1 (Global_index.nodes gi);
      Alcotest.(check int) (label "costed accesses to the shared free list") 0 (accesses "gidx.free" - before);
      Global_index.check gi)
    [ false; true ]

let test_own_lists_bound_the_table () =
  let nprocs = 2 in
  let pf, proc, _ = proc_counting ~nprocs in
  let gi = Global_index.create pf ~name:"gidx" ~nclasses:1 () in
  let sbs = List.init 3 (fun i -> partial_sb ~base:(4096 * (i + 1))) in
  let bound () = Global_index.entries gi + (nprocs * Lockfree.own_cap) + nprocs in
  for round = 1 to 1000 do
    proc := 0;
    List.iter (Global_index.publish gi) sbs;
    Alcotest.(check bool) (Printf.sprintf "round %d: published, table within bound" round) true
      (Global_index.nodes gi <= bound ());
    proc := 1;
    List.iter
      (fun _ -> Alcotest.(check bool) "acquired" true (Option.is_some (Global_index.acquire gi ~sclass:0)))
      sbs;
    Alcotest.(check bool) (Printf.sprintf "round %d: acquired, table within bound" round) true
      (Global_index.nodes gi <= bound ());
    (* The walk fails on a list over its cap. *)
    if round mod 100 = 0 then Global_index.check gi
  done;
  Alcotest.(check int) "nothing left on the stacks" 0 (Global_index.entries gi)

let test_walk_checks_own_list_count () =
  (* A processor's list whose head counts one node fewer than it holds. *)
  let pf, (_, atomic) = naming (Platform.host ()) in
  let p = Lockfree.pool pf ~name:"w" () in
  let s = (Lockfree.add_stacks p [| "s" |]).(0) in
  List.iter (fun v -> ignore (Lockfree.push s v)) [ 1; 2 ];
  List.iter (fun _ -> ignore (Lockfree.pop s)) [ 1; 2 ];
  Lockfree.walk p (fun _ _ -> ());
  let own = atomic "w.free.p0" in
  own.Platform.poke (own.Platform.peek () - (1 lsl 20));
  match Lockfree.walk p (fun _ _ -> ()) with
  | () -> Alcotest.fail "walk accepted a miscounted list"
  | exception Failure m ->
    Alcotest.(check bool) ("names the count: " ^ m) true (Astring.String.is_infix ~affix:"its head counts" m)

(* A 4-node bucket's atomics, as Lockfree.create makes them. *)
let bucket_atomics ~pages =
  List.map (Printf.sprintf "lc.b%d.%s" pages) [ "next0"; "next1"; "next2"; "next3"; "free"; "head" ]

let test_large_cache_builds_used_buckets () =
  let host = Platform.host () in
  let page = host.Platform.page_size in
  let pf, (names, _) = naming host in
  let lc = Large_cache.create pf ~name:"lc" ~cap:4 () in
  Large_cache.check lc;
  Alcotest.(check (pair int int)) "length and parks" (0, 0) (Large_cache.length lc, Large_cache.parks lc);
  Large_cache.iter lc (fun ~addr:_ ~mapped:_ -> Alcotest.fail "a fresh cache parks nothing");
  Alcotest.(check (list string)) "a fresh cache builds no bucket" [] (names ());
  let addr = pf.Platform.page_map ~bytes:(2 * page) ~align:page ~owner:0 in
  Alcotest.(check bool) "parked" true (Large_cache.park lc ~addr ~mapped:(2 * page) = `Parked);
  Alcotest.(check (list string)) "one park builds its bucket" (bucket_atomics ~pages:2) (names ());
  Alcotest.(check (option int)) "uncacheable take" None (Large_cache.take lc ~mapped:(17 * page));
  Alcotest.(check (option int)) "a take of an empty bucket" None (Large_cache.take lc ~mapped:(3 * page));
  Alcotest.(check (list string)) "the take builds its bucket too" (bucket_atomics ~pages:2 @ bucket_atomics ~pages:3)
    (names ());
  Large_cache.check lc;
  let parked = ref [] in
  Large_cache.iter lc (fun ~addr ~mapped -> parked := (addr, mapped) :: !parked);
  Alcotest.(check (list (pair int int))) "iter" [ (addr, 2 * page) ] !parked;
  Alcotest.(check (pair int int)) "length and parks" (1, 1) (Large_cache.length lc, Large_cache.parks lc);
  Alcotest.(check int) "introspection builds nothing" 12 (List.length (names ()));
  (* A resident parked region in the one bucket holding anything. *)
  pf.Platform.page_commit ~addr;
  match Large_cache.check lc with
  | () -> Alcotest.fail "check missed a resident region in a built bucket"
  | exception Failure m ->
    Alcotest.(check bool) ("names the region: " ^ m) true (Astring.String.is_infix ~affix:"still resident" m)

(* --- Deferred_list capped push --- *)

(* A host platform that logs each memory access and atomic operation,
   in order: ["write"], ["read"], ["load <name>"], ["cas <name>"]. *)
let effect_log () =
  let pf = Platform.host () in
  let log = ref [] in
  let note e = log := e :: !log in
  let new_atomic name init =
    let a = pf.Platform.new_atomic name init in
    {
      a with
      Platform.load =
        (fun () ->
          note ("load " ^ name);
          a.Platform.load ());
      cas =
        (fun ~expected ~desired ->
          note ("cas " ^ name);
          a.Platform.cas ~expected ~desired);
      store =
        (fun v ->
          note ("store " ^ name);
          a.Platform.store v);
      faa =
        (fun d ->
          note ("faa " ^ name);
          a.Platform.faa d);
    }
  in
  let read ~addr ~len =
    note "read";
    pf.Platform.read ~addr ~len
  in
  let write ~addr ~len =
    note "write";
    pf.Platform.write ~addr ~len
  in
  let taken () =
    let l = List.rev !log in
    log := [];
    l
  in
  ({ pf with Platform.new_atomic; read; write }, taken)

(* [n] freed, custody-marked 512 B blocks of one superblock at [base],
   their first words holding no known link. *)
let freed_blocks ~base n =
  let sb = Superblock.create ~base ~sb_size:4096 ~sclass:0 ~block_size:512 in
  List.init n (fun _ ->
      let a = Superblock.alloc_block sb in
      Superblock.mark_cached sb a;
      (sb, a, 0))

let test_capped_push_bails_before_linking () =
  let pf, taken = effect_log () in
  let l = Deferred_list.create pf ~name:"dl" () in
  Alcotest.(check bool) "fills to the cap" true (Deferred_list.push_many ~cap:4 l (freed_blocks ~base:4096 4));
  ignore (taken ());
  Alcotest.(check bool) "over the cap: rejected" false
    (Deferred_list.push_many ~cap:4 l (freed_blocks ~base:8192 3));
  Alcotest.(check (list string)) "one head load, no link written" [ "load dl.head" ] (taken ());
  Alcotest.(check int) "length unchanged" 4 (Deferred_list.length l);
  Alcotest.(check int) "bytes unchanged" (4 * 512) (Deferred_list.bytes l);
  Deferred_list.check l

let test_capped_push_that_fits () =
  let push ?cap () =
    let pf, taken = effect_log () in
    let l = Deferred_list.create pf ~name:"dl" () in
    Alcotest.(check bool) "published" true (Deferred_list.push_many ?cap l (freed_blocks ~base:4096 3));
    Alcotest.(check int) "length" 3 (Deferred_list.length l);
    Deferred_list.check l;
    taken ()
  in
  let uncapped = push () in
  Alcotest.(check (list string)) "uncapped: links, head load, tail link, CAS"
    [ "write"; "write"; "load dl.head"; "write"; "cas dl.head" ]
    uncapped;
  Alcotest.(check (list string)) "capped: one more head load, first" ("load dl.head" :: uncapped) (push ~cap:3 ())

(* A batch whose words already link each block to the next one (a
   cache's frees, newest first) stores only its tail link; a block whose
   word holds anything else is stored. *)
let test_push_keeps_links_in_place () =
  let push items =
    let pf, taken = effect_log () in
    let l = Deferred_list.create pf ~name:"dl" () in
    Alcotest.(check bool) "published" true (Deferred_list.push_many l items);
    Deferred_list.check l;
    let got = List.map (fun (_, a) -> a) (Deferred_list.reclaim l) in
    Alcotest.(check (list int)) "chain in batch order" (List.map (fun (_, a, _) -> a) items) got;
    List.filter (fun e -> e = "write") (taken ())
  in
  let rec chained = function
    | (sb, a, _) :: ((_, next, _) :: _ as rest) -> (sb, a, next) :: chained rest
    | last -> last
  in
  let linked = chained (freed_blocks ~base:4096 4) in
  Alcotest.(check int) "linked: the tail link only" 1 (List.length (push linked));
  Alcotest.(check int) "unlinked: one store per block" 4 (List.length (push (freed_blocks ~base:8192 4)));
  let broken =
    List.mapi (fun i ((sb, a, l) as x) -> if i = 1 then (sb, a, l + 8) else x) (chained (freed_blocks ~base:12288 4))
  in
  Alcotest.(check int) "one stale link: one more store" 2 (List.length (push broken))

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
          Alcotest.test_case "create cost per class" `Quick test_heap_create_cost_per_class;
          Alcotest.test_case "one class in use" `Quick test_heap_one_class_in_use;
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
          Alcotest.test_case "create forces no minor collection" `Quick test_global_index_create_no_minor_gc;
          Alcotest.test_case "a fresh index holds only the empties stack" `Quick test_fresh_index_holds_empties_only;
          Alcotest.test_case "publish builds its class's stacks once" `Quick test_publish_builds_its_class;
          Alcotest.test_case "check and iter walk the built stacks" `Quick test_index_walks_built_stacks;
          Alcotest.test_case "first acquire of a class costs as pinned" `Quick test_first_acquire_cost;
          Alcotest.test_case "a stale entry for a reused superblock is dropped" `Quick test_stale_entry_dropped;
          Alcotest.test_case "one processor's loop never touches the shared free list" `Quick
            test_own_list_spares_shared_word;
          Alcotest.test_case "asymmetric processors keep the node table bounded" `Quick
            test_own_lists_bound_the_table;
          Alcotest.test_case "walk checks a processor list's count" `Quick test_walk_checks_own_list_count;
        ] );
      ( "deferred-list",
        [
          Alcotest.test_case "capped push bails before linking" `Quick test_capped_push_bails_before_linking;
          Alcotest.test_case "capped push that fits" `Quick test_capped_push_that_fits;
          Alcotest.test_case "push keeps links in place" `Quick test_push_keeps_links_in_place;
        ] );
      ( "lockfree",
        [
          Alcotest.test_case "bounded pool refuses when full" `Quick test_bounded_pool_refuses_when_full;
          Alcotest.test_case "growing pool LIFO past its first table" `Quick test_growing_pool_lifo_past_first_table;
          Alcotest.test_case "walk rejects a node on two stacks" `Quick test_walk_rejects_node_on_two_stacks;
        ] );
      ( "large",
        [
          Alcotest.test_case "roundtrip" `Quick test_large_roundtrip;
          Alcotest.test_case "locked threshold" `Quick test_locked_large_threshold;
          Alcotest.test_case "cache builds the buckets it uses" `Quick test_large_cache_builds_used_buckets;
        ] );
    ]
