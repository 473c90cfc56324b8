(* Coherence simulator semantics: MESI-ish transitions and the counters the
   false-sharing experiments are built on. *)

let mk () = Cache.create ~line_size:64 ~nprocs:4 ()

let test_first_touch_is_cold () =
  let c = mk () in
  let s = Cache.read c 0 ~addr:4096 ~len:8 in
  Alcotest.(check int) "cold" 1 s.Cache.cold_misses;
  Alcotest.(check int) "no hit" 0 s.Cache.hits

let test_second_touch_hits () =
  let c = mk () in
  ignore (Cache.read c 0 ~addr:4096 ~len:8);
  let s = Cache.read c 0 ~addr:4100 ~len:8 in
  Alcotest.(check int) "hit" 1 s.Cache.hits

let test_read_sharing_no_invalidation () =
  let c = mk () in
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  let s = Cache.read c 1 ~addr:0 ~len:8 in
  Alcotest.(check int) "coherence miss" 1 s.Cache.coherence_misses;
  Alcotest.(check int) "no invalidation" 0 s.Cache.invalidations_sent;
  Alcotest.(check (list int)) "both sharers" [ 0; 1 ] (Cache.sharers c ~line:0)

let test_write_invalidates_readers () =
  let c = mk () in
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  ignore (Cache.read c 1 ~addr:0 ~len:8);
  ignore (Cache.read c 2 ~addr:0 ~len:8);
  let s = Cache.write c 3 ~addr:0 ~len:8 in
  Alcotest.(check int) "three invalidations" 3 s.Cache.invalidations_sent;
  Alcotest.(check (list int)) "sole owner" [ 3 ] (Cache.sharers c ~line:0);
  Alcotest.(check int) "received counted" 1 (Cache.stats c 0).Cache.p_invalidations_received

let test_upgrade_from_shared_is_hit () =
  let c = mk () in
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  ignore (Cache.read c 1 ~addr:0 ~len:8);
  let s = Cache.write c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "hit (data local)" 1 s.Cache.hits;
  Alcotest.(check int) "peer invalidated" 1 s.Cache.invalidations_sent

let test_write_write_pingpong () =
  let c = mk () in
  ignore (Cache.write c 0 ~addr:0 ~len:8);
  let s = Cache.write c 1 ~addr:8 ~len:8 in
  (* Different byte, same line: textbook false sharing. *)
  Alcotest.(check int) "coherence miss" 1 s.Cache.coherence_misses;
  Alcotest.(check int) "invalidation" 1 s.Cache.invalidations_sent;
  let s = Cache.write c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "ping-pong continues" 1 s.Cache.coherence_misses

let test_distinct_lines_independent () =
  let c = mk () in
  ignore (Cache.write c 0 ~addr:0 ~len:8);
  let s = Cache.write c 1 ~addr:64 ~len:8 in
  Alcotest.(check int) "no coherence traffic" 0 (s.Cache.coherence_misses + s.Cache.invalidations_sent)

let test_multi_line_access () =
  let c = mk () in
  let s = Cache.read c 0 ~addr:60 ~len:8 in
  (* Spans lines 0 and 1. *)
  Alcotest.(check int) "two cold misses" 2 s.Cache.cold_misses;
  let s = Cache.read c 0 ~addr:0 ~len:128 in
  Alcotest.(check int) "two hits" 2 s.Cache.hits

let test_reset_stats_keeps_directory () =
  let c = mk () in
  ignore (Cache.write c 0 ~addr:0 ~len:8);
  Cache.reset_stats c;
  Alcotest.(check int) "counters zero" 0 (Cache.stats c 0).Cache.p_hits;
  let s = Cache.read c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "directory intact: hit" 1 s.Cache.hits

let test_bad_args () =
  let c = mk () in
  Alcotest.check_raises "len 0" (Invalid_argument "Cache.access: len must be positive") (fun () ->
      ignore (Cache.read c 0 ~addr:0 ~len:0));
  Alcotest.check_raises "bad proc" (Invalid_argument "Cache.access: bad processor id") (fun () ->
      ignore (Cache.read c 9 ~addr:0 ~len:8))

(* --- finite capacity --- *)

let test_capacity_evicts_lru () =
  let c = Cache.create ~line_size:64 ~capacity_lines:2 ~nprocs:1 () in
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  (* line 0 *)
  ignore (Cache.read c 0 ~addr:64 ~len:8);
  (* line 1 *)
  ignore (Cache.read c 0 ~addr:128 ~len:8);
  (* line 2: evicts line 0 *)
  Alcotest.(check int) "one eviction" 1 (Cache.stats c 0).Cache.p_evictions;
  let s = Cache.read c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "line 0 misses again" 1 s.Cache.cold_misses;
  let s = Cache.read c 0 ~addr:128 ~len:8 in
  Alcotest.(check int) "line 2 still hits" 1 s.Cache.hits

let test_capacity_lru_order_updated () =
  let c = Cache.create ~line_size:64 ~capacity_lines:2 ~nprocs:1 () in
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  ignore (Cache.read c 0 ~addr:64 ~len:8);
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  (* touch line 0: line 1 becomes LRU *)
  ignore (Cache.read c 0 ~addr:128 ~len:8);
  (* evicts line 1, not line 0 *)
  let s = Cache.read c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "line 0 survived" 1 s.Cache.hits;
  let s = Cache.read c 0 ~addr:64 ~len:8 in
  Alcotest.(check int) "line 1 evicted" 1 s.Cache.cold_misses

let test_capacity_per_processor () =
  (* Evictions on one processor must not disturb another's cache. *)
  let c = Cache.create ~line_size:64 ~capacity_lines:1 ~nprocs:2 () in
  ignore (Cache.read c 0 ~addr:0 ~len:8);
  ignore (Cache.read c 1 ~addr:0 ~len:8);
  ignore (Cache.read c 0 ~addr:64 ~len:8);
  (* proc 0 evicts line 0 *)
  let s = Cache.read c 1 ~addr:0 ~len:8 in
  Alcotest.(check int) "proc 1 still hits line 0" 1 s.Cache.hits

let test_infinite_cache_never_evicts () =
  let c = Cache.create ~line_size:64 ~nprocs:1 () in
  for i = 0 to 9999 do
    ignore (Cache.read c 0 ~addr:(i * 64) ~len:8)
  done;
  Alcotest.(check int) "no evictions" 0 (Cache.stats c 0).Cache.p_evictions;
  let s = Cache.read c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "first line still cached" 1 s.Cache.hits

(* --- NUMA topology --- *)

let test_cross_node_counted () =
  (* Procs 0,1 on node 0; procs 2,3 on node 1. *)
  let c = Cache.create ~line_size:64 ~node_of:(fun p -> p / 2) ~nprocs:4 () in
  ignore (Cache.write c 0 ~addr:0 ~len:8);
  (* Same-node write ping-pong: no cross-node events. *)
  let s = Cache.write c 1 ~addr:0 ~len:8 in
  Alcotest.(check int) "same node free" 0 s.Cache.cross_node_events;
  (* Cross-node invalidation: one event. *)
  let s = Cache.write c 2 ~addr:0 ~len:8 in
  Alcotest.(check int) "cross node counted" 1 s.Cache.cross_node_events;
  (* Cross-node read service: one event. *)
  let s = Cache.read c 0 ~addr:0 ~len:8 in
  Alcotest.(check int) "cross read counted" 1 s.Cache.cross_node_events;
  Alcotest.(check int) "total" 2 (Cache.total_cross_node_events c)

let test_flat_machine_no_cross_node () =
  let c = mk () in
  ignore (Cache.write c 0 ~addr:0 ~len:8);
  let s = Cache.write c 3 ~addr:0 ~len:8 in
  Alcotest.(check int) "flat: never cross-node" 0 s.Cache.cross_node_events

let test_numa_costs_charged_in_sim () =
  (* Two procs ping-ponging one line: same sim but with a topology must
     cost strictly more. *)
  let run topo =
    let sim =
      match topo with
      | false -> Sim.create ~nprocs:2 ()
      | true -> Sim.create ~topology:(2, 1) ~nprocs:2 ()
    in
    for _ = 0 to 1 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 100 do
               Sim.write ~addr:4096 ~len:8
             done))
    done;
    Sim.run sim;
    Sim.total_cycles sim
  in
  let flat = run false and numa = run true in
  Alcotest.(check bool) (Printf.sprintf "numa (%d) > flat (%d)" numa flat) true (numa > flat)

(* --- domain-map validation: out-of-range and non-contiguous ids --- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_reject_out_of_range_ids () =
  expect_invalid "negative node id" (fun () ->
      Cache.create ~node_of:(fun p -> if p = 1 then -1 else 0) ~nprocs:4 ());
  expect_invalid "node id >= nprocs" (fun () ->
      Cache.create ~node_of:(fun p -> if p = 3 then 4 else 0) ~nprocs:4 ());
  expect_invalid "socket id out of range" (fun () -> Cache.create ~socket_of:(fun _ -> 7) ~nprocs:4 ())

let test_reject_non_contiguous_ids () =
  (* Node ids {0, 2}: id 1 unused — a gap would make every event against
     the phantom node "remote" and silently skew the counters. *)
  expect_invalid "gap in node ids" (fun () ->
      Cache.create ~node_of:(fun p -> if p < 2 then 0 else 2) ~nprocs:4 ());
  expect_invalid "gap in socket ids" (fun () ->
      Cache.create ~socket_of:(fun p -> if p = 0 then 0 else 2) ~nprocs:4 ());
  (* Id 0 itself unused. *)
  expect_invalid "ids not starting at 0" (fun () -> Cache.create ~node_of:(fun _ -> 1) ~nprocs:4 ())

let test_valid_maps_accepted_and_queried () =
  let c = Cache.create ~node_of:(fun p -> p / 2) ~socket_of:(fun p -> p / 2) ~nprocs:4 () in
  Alcotest.(check int) "node of proc 0" 0 (Cache.node_of c 0);
  Alcotest.(check int) "node of proc 3" 1 (Cache.node_of c 3);
  Alcotest.(check int) "socket of proc 2" 1 (Cache.socket_of c 2);
  (* A socket-crossing write counts in both cross-domain counters. *)
  ignore (Cache.write c 0 ~addr:0 ~len:8);
  ignore (Cache.write c 2 ~addr:0 ~len:8);
  Alcotest.(check int) "cross-node counted" 1 (Cache.total_cross_node_events c);
  Alcotest.(check int) "cross-socket counted" 1 (Cache.total_cross_socket_events c)

(* Property: invalidations sent and received balance globally, and every
   access is classified exactly once. *)
let test_counters_balance =
  QCheck.Test.make ~name:"Cache invalidations balance, classification total" ~count:200
    QCheck.(list (triple (int_range 0 3) (int_range 0 63) bool))
    (fun ops ->
      let c = mk () in
      let naccesses = List.length ops in
      List.iter
        (fun (p, slot, w) ->
          let addr = slot * 8 in
          if w then ignore (Cache.write c p ~addr ~len:8) else ignore (Cache.read c p ~addr ~len:8))
        ops;
      let sent = ref 0 and recv = ref 0 and classified = ref 0 in
      for p = 0 to 3 do
        let s = Cache.stats c p in
        sent := !sent + s.Cache.p_invalidations_sent;
        recv := !recv + s.Cache.p_invalidations_received;
        classified := !classified + s.Cache.p_hits + s.Cache.p_cold_misses + s.Cache.p_coherence_misses
      done;
      !sent = !recv && !classified = naccesses)

let () =
  Alcotest.run "cache"
    [
      ( "transitions",
        [
          Alcotest.test_case "cold first touch" `Quick test_first_touch_is_cold;
          Alcotest.test_case "hit second touch" `Quick test_second_touch_hits;
          Alcotest.test_case "read sharing" `Quick test_read_sharing_no_invalidation;
          Alcotest.test_case "write invalidates" `Quick test_write_invalidates_readers;
          Alcotest.test_case "upgrade" `Quick test_upgrade_from_shared_is_hit;
          Alcotest.test_case "write ping-pong" `Quick test_write_write_pingpong;
          Alcotest.test_case "distinct lines" `Quick test_distinct_lines_independent;
          Alcotest.test_case "multi-line access" `Quick test_multi_line_access;
        ] );
      ( "stats",
        [
          Alcotest.test_case "reset" `Quick test_reset_stats_keeps_directory;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          QCheck_alcotest.to_alcotest test_counters_balance;
        ] );
      ( "numa",
        [
          Alcotest.test_case "cross-node counted" `Quick test_cross_node_counted;
          Alcotest.test_case "flat has none" `Quick test_flat_machine_no_cross_node;
          Alcotest.test_case "sim charges surcharge" `Quick test_numa_costs_charged_in_sim;
        ] );
      ( "topology validation",
        [
          Alcotest.test_case "out-of-range ids rejected" `Quick test_reject_out_of_range_ids;
          Alcotest.test_case "non-contiguous ids rejected" `Quick test_reject_non_contiguous_ids;
          Alcotest.test_case "valid maps accepted" `Quick test_valid_maps_accepted_and_queried;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "evicts LRU" `Quick test_capacity_evicts_lru;
          Alcotest.test_case "LRU order" `Quick test_capacity_lru_order_updated;
          Alcotest.test_case "per processor" `Quick test_capacity_per_processor;
          Alcotest.test_case "infinite never evicts" `Quick test_infinite_cache_never_evicts;
        ] );
    ]
