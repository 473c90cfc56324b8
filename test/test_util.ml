(* Utility-library tests: PRNG, intrusive lists, histograms, tables, stats. *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a);
  Alcotest.(check bool) "now divergent positions" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_bounds =
  QCheck.Test.make ~name:"Rng.int_in stays within bounds" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let hi = lo + abs span in
      let x = Rng.int_in rng lo hi in
      x >= lo && x <= hi)

let test_rng_int_distribution () =
  let rng = Rng.create 123 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c -> Alcotest.(check bool) (Printf.sprintf "bucket %d roughly uniform (%d)" i c) true (c > 700 && c < 1300))
    counts

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_exponential_positive () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 10.0 >= 0.0)
  done

(* --- Dlist --- *)

(* Front-to-back contents, read through [iter]. *)
let dlist_contents l =
  let acc = ref [] in
  Dlist.iter (fun v -> acc := v :: !acc) l;
  List.rev !acc

let dlist_last l = List.fold_left (fun _ v -> Some v) None (dlist_contents l)

(* Build [xs] front to back with [push_front]; returns their nodes in
   the same order. *)
let dlist_of l xs = List.rev_map (Dlist.push_front l) (List.rev xs)

let test_dlist_push_pop () =
  let l = Dlist.create () in
  let n0 = List.hd (dlist_of l [ 0; 1; 2 ]) in
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (dlist_contents l);
  Alcotest.(check int) "length" 3 (Dlist.length l);
  Dlist.remove l n0;
  Alcotest.(check int) "length after pop" 2 (Dlist.length l);
  Alcotest.(check (option int)) "peek front" (Some 1) (Dlist.peek_front l);
  Alcotest.(check (option int)) "back" (Some 2) (dlist_last l)

let test_dlist_remove_middle () =
  let l = Dlist.create () in
  let b = List.nth (dlist_of l [ 'a'; 'b'; 'c' ]) 1 in
  Dlist.remove l b;
  Alcotest.(check (list char)) "middle removed" [ 'a'; 'c' ] (dlist_contents l)

let test_dlist_remove_foreign_rejected () =
  let l1 = Dlist.create () and l2 = Dlist.create () in
  let n = Dlist.push_front l1 1 in
  ignore (Dlist.push_front l2 2);
  Alcotest.check_raises "foreign node" (Invalid_argument "Dlist.remove: node not in this list") (fun () ->
      Dlist.remove l2 n)

let test_dlist_double_remove_rejected () =
  let l = Dlist.create () in
  let n = Dlist.push_front l 1 in
  Dlist.remove l n;
  Alcotest.check_raises "double remove" (Invalid_argument "Dlist.remove: node not in this list") (fun () ->
      Dlist.remove l n)

let test_dlist_find () =
  let l = Dlist.create () in
  ignore (dlist_of l [ 1; 3; 5; 6; 7 ]);
  Alcotest.(check (option int)) "first even" (Some 6) (Dlist.find (fun x -> x mod 2 = 0) l);
  Alcotest.(check (option int)) "none" None (Dlist.find (fun x -> x > 100) l)

(* Model-based property: a Dlist driven by random pushes and removals
   (of the node at a random position) agrees with a plain list model. *)
let test_dlist_model =
  QCheck.Test.make ~name:"Dlist matches list model" ~count:200
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let l = Dlist.create () in
      (* (node, value) pairs, front to back. *)
      let model = ref [] in
      List.iteri
        (fun i (push, k) ->
          if push then model := (Dlist.push_front l i, i) :: !model
          else if !model <> [] then begin
            let j = k mod List.length !model in
            Dlist.remove l (fst (List.nth !model j));
            model := List.filteri (fun p _ -> p <> j) !model
          end)
        ops;
      dlist_contents l = List.map snd !model && Dlist.length l = List.length !model)

let test_dlist_empty_edges () =
  let l = Dlist.create () in
  Alcotest.(check int) "length" 0 (Dlist.length l);
  Alcotest.(check (option int)) "peek_front" None (Dlist.peek_front l);
  Alcotest.(check (option int)) "find" None (Dlist.find (fun _ -> true) l);
  let visited = ref 0 in
  Dlist.iter (fun _ -> incr visited) l;
  Alcotest.(check int) "iter no-op" 0 !visited

(* Removing the node currently being visited must not derail the walk:
   [iter] captures the successor before calling [f]. This is exactly the
   reposition-while-scanning pattern of Heap_core's fullness groups. *)
let test_dlist_remove_current_while_iterating () =
  let l = Dlist.create () in
  let nodes = List.combine [ 1; 2; 3; 4 ] (dlist_of l [ 1; 2; 3; 4 ]) in
  let visited = ref [] in
  Dlist.iter
    (fun v ->
      visited := v :: !visited;
      if v mod 2 = 0 then Dlist.remove l (List.assoc v nodes))
    l;
  Alcotest.(check (list int)) "all visited" [ 1; 2; 3; 4 ] (List.rev !visited);
  Alcotest.(check (list int)) "evens removed" [ 1; 3 ] (dlist_contents l);
  Alcotest.(check int) "length tracks" 2 (Dlist.length l)

(* Remove-and-relink mid-iteration: the moved node is pushed to the front
   of the SAME list while the walk is past it, so it must not be visited
   twice — the walk follows captured successors, not the mutated head. *)
let test_dlist_reposition_while_iterating () =
  let l = Dlist.create () in
  let n2 = List.nth (dlist_of l [ 1; 2; 3 ]) 1 in
  let visited = ref [] in
  Dlist.iter
    (fun v ->
      visited := v :: !visited;
      if v = 2 then begin
        Dlist.remove l n2;
        ignore (Dlist.push_front l 2)
      end)
    l;
  Alcotest.(check (list int)) "each visited once" [ 1; 2; 3 ] (List.rev !visited);
  Alcotest.(check (list int)) "repositioned to front" [ 2; 1; 3 ] (dlist_contents l)

let test_dlist_remove_head_and_tail_edges () =
  let l = Dlist.create () in
  let a, b, c =
    match dlist_of l [ 'a'; 'b'; 'c' ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Dlist.remove l a;
  Alcotest.(check (option char)) "new head" (Some 'b') (Dlist.peek_front l);
  Dlist.remove l c;
  Alcotest.(check (option char)) "new tail" (Some 'b') (dlist_last l);
  Dlist.remove l b;
  Alcotest.(check int) "empty after removing singleton" 0 (Dlist.length l);
  Alcotest.(check (option char)) "no head" None (Dlist.peek_front l);
  Alcotest.(check (option char)) "no tail" None (dlist_last l);
  (* The emptied list is immediately reusable (the empty-bin edge: a
     fullness group drained by transfers keeps serving). *)
  ignore (Dlist.push_front l 'z');
  Alcotest.(check (list char)) "reusable" [ 'z' ] (dlist_contents l)

let test_dlist_node_reuse_across_lists_rejected () =
  let l1 = Dlist.create () and l2 = Dlist.create () in
  let n = Dlist.push_front l1 1 in
  Dlist.remove l1 n;
  (* A detached node is homeless; only the list that created it via push
     may ever hold it, and a remove through a stale handle must fail even
     against its original list. *)
  Alcotest.check_raises "stale node" (Invalid_argument "Dlist.remove: node not in this list") (fun () ->
      Dlist.remove l1 n);
  Alcotest.check_raises "foreign list" (Invalid_argument "Dlist.remove: node not in this list") (fun () ->
      Dlist.remove l2 n)

(* --- Histogram --- *)

let test_histogram_buckets () =
  let h = Histogram.create ~bounds:[| 10; 100 |] in
  List.iter (Histogram.add h) [ 5; 9; 10; 50; 100; 1000 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  let buckets = Histogram.buckets h in
  Alcotest.(check int) "under 10" 2 (let _, _, c = buckets.(0) in c);
  Alcotest.(check int) "10..99" 2 (let _, _, c = buckets.(1) in c);
  Alcotest.(check int) "overflow" 2 (let _, _, c = buckets.(2) in c);
  Alcotest.(check (option int)) "min" (Some 5) (Histogram.min_value h);
  Alcotest.(check (option int)) "max" (Some 1000) (Histogram.max_value h)

let test_histogram_mean_total () =
  let h = Histogram.create ~bounds:[| 8 |] in
  List.iter (Histogram.add h) [ 2; 4; 6 ];
  Alcotest.(check int) "total" 12 (Histogram.total h);
  Alcotest.(check (float 0.001)) "mean" 4.0 (Histogram.mean h)

let test_histogram_exponential_bounds () =
  Alcotest.(check (array int)) "powers of two" [| 8; 16; 32; 64 |] (Histogram.exponential_bounds ~lo:8 ~hi:64)

let test_histogram_percentiles () =
  let h = Histogram.create ~bounds:[| 10; 100; 1000 |] in
  for _ = 1 to 90 do
    Histogram.add h 5
  done;
  for _ = 1 to 9 do
    Histogram.add h 50
  done;
  Histogram.add h 5000;
  Alcotest.(check int) "p50 in first bucket" 10 (Histogram.percentile h 0.5);
  Alcotest.(check int) "p95 in second bucket" 100 (Histogram.percentile h 0.95);
  Alcotest.(check int) "p100 is max" 5000 (Histogram.percentile h 1.0);
  Alcotest.(check int) "empty is 0" 0 (Histogram.percentile (Histogram.create ~bounds:[| 1 |]) 0.5)

let test_histogram_log_linear_bounds () =
  (* sub=1 degenerates to the power-of-two layout (plus the explicit top
     edge the log-linear constructor always appends). *)
  Alcotest.(check (array int)) "sub=1 is exponential" [| 8; 16; 32; 64; 128 |]
    (Histogram.log_linear_bounds ~lo:8 ~hi:64 ~sub:1);
  (* Each power-of-two span is cut into sub linear steps. *)
  Alcotest.(check (array int)) "sub=4 cuts each span" [| 16; 20; 24; 28; 32 |]
    (Histogram.log_linear_bounds ~lo:16 ~hi:31 ~sub:4)

let test_histogram_log_linear_p50_equivalence () =
  (* The same stream through the old power-of-two layout and the new
     sub-bucketed one: both percentile estimates are upper bounds of the
     true median, and the finer layout's estimate is never looser. *)
  let vals = List.init 1001 (fun i -> 8 + (i * 13 mod 4096)) in
  let coarse = Histogram.create ~bounds:(Histogram.exponential_bounds ~lo:8 ~hi:8192) in
  let fine = Histogram.create_log_linear ~lo:8 ~hi:8192 ~sub:8 in
  List.iter
    (fun v ->
      Histogram.add coarse v;
      Histogram.add fine v)
    vals;
  let true_median = List.nth (List.sort compare vals) 500 in
  let p50_coarse = Histogram.percentile coarse 0.5 in
  let p50_fine = Histogram.percentile fine 0.5 in
  Alcotest.(check bool) "both bound the median" true (p50_coarse >= true_median && p50_fine >= true_median);
  Alcotest.(check bool) "fine is no looser" true (p50_fine <= p50_coarse);
  (* The point of sub-bucketing: relative error drops from a factor of
     two to 1/sub. *)
  Alcotest.(check bool) "fine within 1/8 of the median" true
    (float_of_int p50_fine <= float_of_int true_median *. (1.0 +. 1.0 /. 8.0) +. 1.0)

let test_histogram_log_linear_p999_tight () =
  let h = Histogram.create_log_linear ~lo:8 ~hi:1_048_576 ~sub:8 in
  for _ = 1 to 995 do
    Histogram.add h 100
  done;
  for _ = 1 to 5 do
    Histogram.add h 100_000
  done;
  let p999 = Histogram.percentile h 0.999 in
  Alcotest.(check bool) "p999 bounds the outlier within 1/8" true
    (p999 >= 100_000 && float_of_int p999 <= 100_000.0 *. 1.125)

let test_histogram_counts_consistent =
  QCheck.Test.make ~name:"Histogram bucket counts sum to n" ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      let h = Histogram.create ~bounds:[| 4; 16; 64; 256 |] in
      List.iter (Histogram.add h) xs;
      Array.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.buckets h) = List.length xs)

(* --- Table --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_table_render_contains_cells () =
  let t = Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "demo"; "alpha"; "beta"; "22" ]

let test_table_wrong_arity_rejected () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row (t): 2 cells, 1 columns") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x,y"; "2" ];
  Alcotest.(check string) "csv quoted" "a,b\n\"x,y\",2\n" (Table.to_csv t)

(* --- Ascii_plot --- *)

let test_plot_contains_series () =
  let s =
    Ascii_plot.render ~title:"demo" ~series:[ ("alpha", [ (1.0, 1.0); (2.0, 2.0) ]); ("beta", [ (1.0, 0.5) ]) ] ()
  in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "demo"; "alpha"; "beta"; "*"; "+" ]

let test_plot_empty () =
  let s = Ascii_plot.render ~title:"empty" ~series:[] () in
  Alcotest.(check bool) "renders placeholder" true (contains s "(no data)")

let test_plot_flat_series () =
  (* A constant series must not divide by zero. *)
  let s = Ascii_plot.render ~title:"flat" ~series:[ ("c", [ (1.0, 3.0); (2.0, 3.0); (3.0, 3.0) ]) ] () in
  Alcotest.(check bool) "renders" true (String.length s > 100)

let test_plot_single_point () =
  let s = Ascii_plot.render ~title:"pt" ~series:[ ("p", [ (5.0, 5.0) ]) ] () in
  Alcotest.(check bool) "renders" true (contains s "*")

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "distribution" `Quick test_rng_int_distribution;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          qt test_rng_bounds;
        ] );
      ( "dlist",
        [
          Alcotest.test_case "push/pop" `Quick test_dlist_push_pop;
          Alcotest.test_case "remove middle" `Quick test_dlist_remove_middle;
          Alcotest.test_case "foreign remove" `Quick test_dlist_remove_foreign_rejected;
          Alcotest.test_case "double remove" `Quick test_dlist_double_remove_rejected;
          Alcotest.test_case "find" `Quick test_dlist_find;
          Alcotest.test_case "empty edges" `Quick test_dlist_empty_edges;
          Alcotest.test_case "remove while iterating" `Quick test_dlist_remove_current_while_iterating;
          Alcotest.test_case "reposition while iterating" `Quick test_dlist_reposition_while_iterating;
          Alcotest.test_case "head/tail removal edges" `Quick test_dlist_remove_head_and_tail_edges;
          Alcotest.test_case "stale node rejected" `Quick test_dlist_node_reuse_across_lists_rejected;
          qt test_dlist_model;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "mean/total" `Quick test_histogram_mean_total;
          Alcotest.test_case "exponential bounds" `Quick test_histogram_exponential_bounds;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "log-linear bounds" `Quick test_histogram_log_linear_bounds;
          Alcotest.test_case "log-linear p50 equivalence" `Quick test_histogram_log_linear_p50_equivalence;
          Alcotest.test_case "log-linear p999 tight" `Quick test_histogram_log_linear_p999_tight;
          qt test_histogram_counts_consistent;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render_contains_cells;
          Alcotest.test_case "arity" `Quick test_table_wrong_arity_rejected;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "series present" `Quick test_plot_contains_series;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "flat series" `Quick test_plot_flat_series;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
        ] );
    ]
