(* The systematic checking layer: schedule explorer, differential
   oracle, heap sanitizer — plus the determinism, edge-case and
   registry-churn regressions that ride on them. *)

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Explorer self-tests on the counter scenarios.                       *)

let test_explorer_finds_lost_update () =
  (* Invisible at bound 0 (no preemption can split the read-modify-write
     around the sync point), found at bound 1. *)
  let o0 = Explorer.explore ~bound:0 Scenarios.lost_update in
  Alcotest.(check bool) "bound 0 passes" true (o0.Explorer.o_failure = None);
  let o1 = Explorer.explore ~bound:1 Scenarios.lost_update in
  (match o1.Explorer.o_failure with
   | None -> Alcotest.fail "bound 1 must find the lost update"
   | Some f ->
     Alcotest.(check bool) "message mentions the counter" true
       (Astring.String.is_infix ~affix:"lost update" f.Explorer.f_message);
     (* The minimized schedule must still reproduce the failure. *)
     (match Explorer.replay Scenarios.lost_update ~schedule:f.Explorer.f_schedule with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "minimized schedule must replay to failure"));
  Alcotest.(check bool) "not truncated" false o1.Explorer.o_truncated

let test_explorer_locked_update_clean () =
  let o = Explorer.explore ~bound:2 Scenarios.locked_update in
  Alcotest.(check bool) "no failure" true (o.Explorer.o_failure = None);
  Alcotest.(check bool) "explored more than one interleaving" true (o.Explorer.o_runs > 1);
  Alcotest.(check bool) "not truncated" false o.Explorer.o_truncated

let test_sleep_dfs_agrees_and_prunes () =
  let chess = Explorer.explore ~strategy:Explorer.Chess ~bound:2 Scenarios.locked_update in
  let sleep = Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:2 Scenarios.locked_update in
  Alcotest.(check bool) "same verdict" true
    (chess.Explorer.o_failure = None && sleep.Explorer.o_failure = None);
  Alcotest.(check bool)
    (sprintf "sleep (%d runs) <= chess (%d runs)" sleep.Explorer.o_runs chess.Explorer.o_runs)
    true
    (sleep.Explorer.o_runs <= chess.Explorer.o_runs);
  let sleep_bug = Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:1 Scenarios.lost_update in
  Alcotest.(check bool) "sleep-dfs still finds the lost update" true (sleep_bug.Explorer.o_failure <> None)

let test_schedule_string_roundtrip () =
  let s = [ 1; 0; 0; 1; 3 ] in
  Alcotest.(check (list int)) "roundtrip" s (Explorer.schedule_of_string (Explorer.schedule_to_string s));
  Alcotest.(check (list int)) "empty" [] (Explorer.schedule_of_string "");
  Alcotest.(check string) "render" "1,0,2" (Explorer.schedule_to_string [ 1; 0; 2 ])

(* ------------------------------------------------------------------ *)
(* The headline demonstration: a planted concurrency mutant is caught  *)
(* at preemption bound <= 2 with a minimized replayable schedule,      *)
(* while the real allocator survives the same exploration.             *)

let test_mutant_transfer_race_caught () =
  let sc = Scenarios.transfer_free_race ~mutant:"skip-owner-recheck" in
  let o = Explorer.explore ~bound:2 sc in
  match o.Explorer.o_failure with
  | None -> Alcotest.fail "explorer must catch the skip-owner-recheck mutant at bound <= 2"
  | Some f ->
    Alcotest.(check bool) "failure names the foreign-superblock free" true
      (Astring.String.is_infix ~affix:"another heap" f.Explorer.f_message);
    (match Explorer.replay sc ~schedule:f.Explorer.f_schedule with
     | Error _ -> ()
     | Ok () ->
       Alcotest.fail
         (sprintf "minimized schedule [%s] must replay to failure"
            (Explorer.schedule_to_string f.Explorer.f_schedule)))

let test_real_transfer_race_survives () =
  let o = Explorer.explore ~bound:2 (Scenarios.transfer_free_race ~mutant:"") in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "real allocator failed under schedule [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated;
  Alcotest.(check bool) "explored more than one interleaving" true (o.Explorer.o_runs > 1)

let test_mutant_emptiness_caught_real_passes () =
  (* The off-by-one trim needs no interleaving at all: the default run's
     post-check rejects it. *)
  let bad = Explorer.explore ~bound:0 (Scenarios.emptiness_trim ~mutant:"emptiness-off-by-one") in
  (match bad.Explorer.o_failure with
   | None -> Alcotest.fail "emptiness-off-by-one must fail the invariant check"
   | Some f ->
     Alcotest.(check bool) "names the invariant" true
       (Astring.String.is_infix ~affix:"invariant" f.Explorer.f_message));
  let ok = Explorer.explore ~bound:0 (Scenarios.emptiness_trim ~mutant:"") in
  Alcotest.(check bool) "real allocator holds the invariant" true (ok.Explorer.o_failure = None)

let test_registry_churn_explored () =
  let o = Explorer.explore ~bound:1 ~max_runs:400 Scenarios.registry_churn in
  match o.Explorer.o_failure with
  | None -> ()
  | Some f ->
    Alcotest.fail
      (sprintf "registry churn failed under [%s]: %s"
         (Explorer.schedule_to_string f.Explorer.f_schedule)
         f.Explorer.f_message)

(* ------------------------------------------------------------------ *)
(* The lock-free Treiber stack under the large-object cache's buckets:
   the real variant explored exhaustively, the seeded mutant caught with
   a minimized replayable schedule.                                     *)

let test_lockfree_stack_protocol_clean () =
  (* Sleep-set DFS makes the full bound-2 tree (tag-retry loops included)
     affordable: ~11k interleavings. *)
  let o =
    Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:2 ~max_runs:200_000
      (Scenarios.lockfree_stack ~mutant:"")
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "lock-free stack failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

let test_lockfree_stack_aba_mutant_caught () =
  let sc = Scenarios.lockfree_stack ~mutant:"large-cache-no-aba" in
  let o = Explorer.explore ~bound:2 sc in
  match o.Explorer.o_failure with
  | None -> Alcotest.fail "explorer must catch the frozen ABA tag at bound <= 2"
  | Some f ->
    Alcotest.(check bool) "failure names the stack corruption" true
      (Astring.String.is_infix ~affix:"Lockfree" f.Explorer.f_message);
    (match Explorer.replay sc ~schedule:f.Explorer.f_schedule with
     | Error _ -> ()
     | Ok () ->
       Alcotest.fail
         (sprintf "minimized schedule [%s] must replay to failure"
            (Explorer.schedule_to_string f.Explorer.f_schedule)))

(* ------------------------------------------------------------------ *)
(* The deferred remote-free list and the large-object cache (PR 8):
   real protocols explored exhaustively at preemption bound 2, the two
   seeded mutants caught with a minimized replayable schedule.          *)

let test_deferred_list_protocol_clean () =
  let o =
    Explorer.explore ~bound:2 ~max_runs:200_000 (Scenarios.deferred_remote_free ~mutant:"")
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "deferred remote free failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

(* The own-heap cap: an eviction bailing from its own heap's full list
   to the locked path, racing a fill on the same heap. *)
let test_deferred_own_overflow_clean () =
  let o = Explorer.explore ~bound:2 ~max_runs:200_000 Scenarios.deferred_own_overflow in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "deferred own overflow failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

(* The bounded queue's twin: remote flushes racing the owner's swap of
   the queue before its heap lock. *)
let test_remote_queue_drain_clean () =
  let o = Explorer.explore ~bound:2 ~max_runs:200_000 Scenarios.remote_queue_drain in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "remote queue drain failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

let test_deferred_lost_node_mutant_caught () =
  let sc = Scenarios.deferred_remote_free ~mutant:"deferred-lost-node" in
  let o = Explorer.explore ~bound:2 sc in
  match o.Explorer.o_failure with
  | None -> Alcotest.fail "explorer must catch the lost push at bound <= 2"
  | Some f ->
    Alcotest.(check bool) "failure counts the missing block" true
      (Astring.String.is_infix ~affix:"expected 3" f.Explorer.f_message);
    (match Explorer.replay sc ~schedule:f.Explorer.f_schedule with
     | Error _ -> ()
     | Ok () ->
       Alcotest.fail
         (sprintf "minimized schedule [%s] must replay to failure"
            (Explorer.schedule_to_string f.Explorer.f_schedule)))

let test_large_cache_protocol_clean () =
  (* Chess, not Sleep_dfs: Large_cache.check reads vmem page residency,
     invisible to step footprints, so sleep-set pruning is unsound. The
     bound-2 tree is ~12k runs. *)
  let o =
    Explorer.explore ~strategy:Explorer.Chess ~bound:2 ~max_runs:200_000
      (Scenarios.large_cache_churn ~mutant:"")
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "large-cache churn failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

let test_large_cache_aba_mutant_caught () =
  let sc = Scenarios.large_cache_churn ~mutant:"large-cache-no-aba" in
  let o = Explorer.explore ~bound:2 sc in
  match o.Explorer.o_failure with
  | None -> Alcotest.fail "explorer must catch the frozen bucket tag at bound <= 2"
  | Some f ->
    Alcotest.(check bool) "failure names the corruption" true
      (Astring.String.is_infix ~affix:"Lockfree" f.Explorer.f_message
      || Astring.String.is_infix ~affix:"large-cache-churn" f.Explorer.f_message);
    (match Explorer.replay sc ~schedule:f.Explorer.f_schedule with
     | Error _ -> ()
     | Ok () ->
       Alcotest.fail
         (sprintf "minimized schedule [%s] must replay to failure"
            (Explorer.schedule_to_string f.Explorer.f_schedule)))

(* ------------------------------------------------------------------ *)
(* The lock-free global heap (PR 10): the Global_index entry stacks and
   Busy handshake explored raw, the end-to-end transfer race through the
   real allocator, and the two seeded mutants caught with a minimized
   replayable schedule.                                                 *)

let test_global_index_churn_clean () =
  (* Bound 2 under sleep-set DFS is exhaustive at ~15k runs (~1s): node
     allocation is host-side bump allocation, so the tree holds only the
     protocol's own CAS steps, not free-list seeding noise. *)
  let o =
    Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:2 ~max_runs:200_000
      (Scenarios.global_index_churn ~mutant:"")
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "global index churn failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

let test_global_no_aba_mutant_caught () =
  let sc = Scenarios.global_index_churn ~mutant:"global-no-aba" in
  let o = Explorer.explore ~bound:2 sc in
  match o.Explorer.o_failure with
  | None -> Alcotest.fail "explorer must catch the frozen entry-stack tag at bound <= 2"
  | Some f ->
    Alcotest.(check bool) "failure names the duplicated node" true
      (Astring.String.is_infix ~affix:"reachable twice" f.Explorer.f_message);
    (match Explorer.replay sc ~schedule:f.Explorer.f_schedule with
     | Error _ -> ()
     | Ok () ->
       Alcotest.fail
         (sprintf "minimized schedule [%s] must replay to failure"
            (Explorer.schedule_to_string f.Explorer.f_schedule)))

let test_global_index_free_clean () =
  (* Two-block runs' Busy handshakes, writes inside Busy, racing a claim
     CAS: the full bound-2 sleep tree is ~4.7k interleavings. *)
  let o =
    Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:2 ~max_runs:200_000
      (Scenarios.global_index_free ~mutant:"")
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "global index free failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

let test_global_skip_revalidate_mutant_caught () =
  let sc = Scenarios.global_index_free ~mutant:"global-skip-revalidate" in
  let o = Explorer.explore ~bound:2 sc in
  match o.Explorer.o_failure with
  | None -> Alcotest.fail "explorer must catch the blind claim store at bound <= 2"
  | Some f ->
    Alcotest.(check bool) "failure names the stomped gauge" true
      (Astring.String.is_infix ~affix:"gauge" f.Explorer.f_message);
    (match Explorer.replay sc ~schedule:f.Explorer.f_schedule with
     | Error _ -> ()
     | Ok () ->
       Alcotest.fail
         (sprintf "minimized schedule [%s] must replay to failure"
            (Explorer.schedule_to_string f.Explorer.f_schedule)))

let test_global_transfer_explored () =
  (* End to end through the real allocator (trim publish vs refill claim
     vs deferred-free reclaim). Bound 1 sleep is exhaustive at ~1.3k
     runs; the bound-2 sleep tree (~44k runs, ~16s) is certified in
     deep-check. *)
  let o =
    Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:1 ~max_runs:200_000
      Scenarios.global_transfer
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "global transfer failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

(* Thread exit on the lock-free global heap: one index publish per
   orphan, racing a free that may park on its heap's shard and a refill
   that completes it and claims the orphan back. *)
let test_exit_adoption_lockfree_explored () =
  let o = Explorer.explore ~bound:2 (Scenarios.exit_adoption ~global:Hoard_config.Lockfree ~mutant:"" ()) in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "lock-free exit adoption failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

let test_exit_adoption_lockfree_mutant_caught () =
  let sc = Scenarios.exit_adoption ~global:Hoard_config.Lockfree ~mutant:"orphan-lost-superblock" () in
  match (Explorer.explore ~bound:0 sc).Explorer.o_failure with
  | None -> Alcotest.fail "orphan-lost-superblock must fail live-byte conservation"
  | Some f ->
    Alcotest.(check bool) "names live-byte conservation" true
      (Astring.String.is_infix ~affix:"live-bytes" f.Explorer.f_message)

let test_global_free_shards_explored () =
  (* Two heaps' shard reclaims racing each other and a refill's claim
     through the real allocator. Bound 1 sleep is exhaustive at ~800
     runs; the bound-2 sleep tree (~28k runs, ~13s) is certified in
     deep-check. *)
  let o =
    Explorer.explore ~strategy:Explorer.Sleep_dfs ~bound:1 ~max_runs:200_000 Scenarios.global_free_shards
  in
  (match o.Explorer.o_failure with
   | None -> ()
   | Some f ->
     Alcotest.fail
       (sprintf "global-free shards failed under [%s]: %s"
          (Explorer.schedule_to_string f.Explorer.f_schedule)
          f.Explorer.f_message));
  Alcotest.(check bool) "explored the tree exhaustively" false o.Explorer.o_truncated

(* ------------------------------------------------------------------ *)
(* Differential fuzz: deferred vs direct frees. The same generated
   trace replays against every hoard-family factory's base config on the
   locked global heap (bounded queues with a front end, direct frees
   without) and on the lock-free one with a front end (so the deferred
   lists) and the large cache switched on; the allocation-visible
   outcome (op counts, live bytes after a full flush) must be identical
   — the deferred path only changes WHEN blocks return to their owner,
   never whether they do.                                               *)

let test_deferred_differential_fuzz () =
  let replay_with ?quarantine config t =
    let sim = Sim.create ~vmem_backend:config.Hoard_config.vmem_backend ~nprocs:4 () in
    let pf = Sim.platform sim in
    let h = Hoard.create ~config pf in
    let san = Option.map (fun quarantine -> Sanitizer.create ~quarantine pf h) quarantine in
    let a = match san with Some sn -> Sanitizer.allocator sn | None -> Hoard.allocator h in
    Trace.replay_sim t sim a ~nthreads:4;
    Sim.run sim;
    a.Alloc_intf.check ();
    (match san with
     | Some sn -> Sanitizer.flush_caches sn
     | None -> Hoard.flush_caches h);
    Hoard.check h;
    let s = a.Alloc_intf.stats () in
    (s.Alloc_stats.mallocs, s.Alloc_stats.frees, s.Alloc_stats.live_bytes)
  in
  List.iter
    (fun seed ->
      (* Sizes straddle the large threshold so the fuzz also covers the
         large-object cache against the direct map/unmap path. *)
      let t =
        Trace.generate ~seed ~ops:2500 ~threads:4 ~live_target:40
          ~size_dist:(Trace.Uniform (8, 6000)) ()
      in
      List.iter
        (fun f ->
          let label = f.Alloc_intf.label in
          match Allocators.base_config label with
          | None -> () (* non-hoard comparison allocators: no deferred variant *)
          | Some cfg ->
            (* hoard-san's sanitizer wraps the instance, as its check subject does. *)
            let quarantine = Option.bind (Check_run.find_subject label) (fun s -> s.Check_run.s_quarantine) in
            let direct = replay_with ?quarantine { cfg with Hoard_config.global = Hoard_config.Locked } t in
            let deferred =
              replay_with ?quarantine
                {
                  cfg with
                  Hoard_config.global = Hoard_config.Lockfree;
                  front_end = max cfg.Hoard_config.front_end 4;
                  large_cache = 4;
                }
                t
            in
            let pp (m, fr, lv) = sprintf "mallocs=%d frees=%d live=%d" m fr lv in
            Alcotest.(check string)
              (sprintf "%s seed %d: deferred outcome equals direct" label seed)
              (pp direct) (pp deferred))
        (Allocators.all () @ Allocators.extras ()))
    [ 3; 1009 ]

(* ------------------------------------------------------------------ *)
(* Differential oracle on the paper workloads.                         *)

let test_oracle_workloads_green () =
  (* Every quick workload, oracle-checked, on the paper allocator and the
     front-end variant, with the blowup envelope asserted at the end. *)
  List.iter
    (fun subject ->
      List.iter
        (fun w ->
          let r = Check_run.run_oracle ~fuzz:7 ~workload:w ~subject () in
          Alcotest.(check bool)
            (sprintf "%s/%s checked ops" subject r.Check_run.c_workload)
            true
            (r.Check_run.c_mallocs > 0 && r.Check_run.c_peak_usable > 0))
        (Check_run.quick_workloads ()))
    [ "hoard"; "hoard-fe" ]

let test_oracle_sanitizer_workloads_green () =
  (* The acceptance gate: paper workloads green under the oracle with the
     sanitizer on (quarantine, poison, access checking). *)
  List.iter
    (fun w ->
      let r = Check_run.run_oracle ~fuzz:11 ~workload:w ~subject:"hoard-san" () in
      Alcotest.(check bool)
        (sprintf "hoard-san/%s ran" r.Check_run.c_workload)
        true (r.Check_run.c_mallocs > 0))
    (Check_run.quick_workloads ())

let test_oracle_first_fit_workloads_green () =
  (* Every quick workload on the first-fit vmem backend, sanitizer on:
     address reuse across sizes under the oracle, whose residency check
     (resident <= held) runs in the post phase for every hoard subject. *)
  List.iter
    (fun w ->
      let r = Check_run.run_oracle ~fuzz:13 ~workload:w ~subject:"hoard-ff-san" () in
      Alcotest.(check bool)
        (sprintf "hoard-ff-san/%s ran" r.Check_run.c_workload)
        true (r.Check_run.c_mallocs > 0))
    (Check_run.quick_workloads ())

let test_oracle_global_workloads_green () =
  (* The lock-free global heap under the oracle: every quick workload on
     hoard-gl, whose post-run check walks the Global_index (owner-0
     membership, slot words, gauge conservation) instead of heap 0's
     Dlist fullness groups. *)
  List.iter
    (fun w ->
      let r = Check_run.run_oracle ~fuzz:29 ~workload:w ~subject:"hoard-gl" () in
      Alcotest.(check bool)
        (sprintf "hoard-gl/%s ran" r.Check_run.c_workload)
        true (r.Check_run.c_mallocs > 0))
    (Check_run.quick_workloads ())

(* The batch calls under the oracle: the server mix fills a request's
   spike with [malloc_batch] and frees it with [free_batch], which no
   quick workload calls. It stays out of [Check_run.quick_workloads]
   because hoard-fe, which "paper workloads green" sweeps, fails it. *)
let test_oracle_server_mix_batches () =
  let run subject =
    let params = { Server_mix.default_params with Server_mix.requests = 240; profile = Server_mix.Bursty } in
    Check_run.run_oracle ~fuzz:7 ~workload:(Server_mix.make ~params ()) ~subject ()
  in
  List.iter
    (fun subject ->
      let r = run subject in
      Alcotest.(check bool) (sprintf "%s/server-mix checked ops" subject) true (r.Check_run.c_mallocs > 0))
    [ "hoard"; "hoard-gl"; "hoard-gl-san" ];
  (* A known failure, recorded as a FOUND line in CHANGES.md: the locked
     global heap's front end exceeds the blowup envelope on the server
     mix, on every profile and seed tried. *)
  match run "hoard-fe" with
  | _ -> Alcotest.fail "hoard-fe passed the server mix: the blowup FOUND line no longer holds"
  | exception Oracle.Oracle_violation msg ->
    Alcotest.(check bool) ("hoard-fe breaks the envelope: " ^ msg) true (Astring.String.is_infix ~affix:"blowup:" msg)

let test_oracle_false_sharing_verdicts () =
  let fs = Check_run.find_workload "active-false" |> Option.get in
  (* Hoard never hands blocks of one cache line to different threads. *)
  let h = Check_run.run_oracle ~workload:fs ~subject:"hoard" ~expect_no_false_sharing:true () in
  Alcotest.(check int) "hoard: no actively shared lines" 0 h.Check_run.c_shared_lines;
  (* A single shared heap carves consecutive blocks for whoever asks. *)
  let c = Check_run.run_oracle ~workload:fs ~subject:"concurrent-single" ~check_blowup:false () in
  Alcotest.(check bool)
    (sprintf "concurrent-single shares lines (%d)" c.Check_run.c_shared_lines)
    true
    (c.Check_run.c_shared_lines > 0)

let test_oracle_catches_misbehavior () =
  (* The oracle itself must reject bad allocators: a double free through
     the wrapped interface raises. *)
  let pf = Platform.host () in
  let a = (Locked_heaps.serial ()).Alloc_intf.instantiate pf in
  let _o, checked = Oracle.wrap pf a in
  let addr = checked.Alloc_intf.malloc 64 in
  checked.Alloc_intf.free addr;
  (match checked.Alloc_intf.free addr with
   | () -> Alcotest.fail "oracle must reject a double free"
   | exception Oracle.Oracle_violation msg ->
     Alcotest.(check bool) "names the address" true (Astring.String.is_infix ~affix:"not a live block" msg));
  Platform.host_release pf

(* ------------------------------------------------------------------ *)
(* Heap sanitizer diagnostics (S/tentpole layer 3).                    *)

let with_san_hoard f =
  let pf = Platform.host () in
  let s = Sanitizer.create ~quarantine:8 pf (Hoard.create pf) in
  let a = Sanitizer.allocator s in
  Fun.protect ~finally:(fun () -> Platform.host_release pf) (fun () -> f s a)

let test_sanitizer_double_free () =
  with_san_hoard (fun _s a ->
      let addr = a.Alloc_intf.malloc 64 in
      a.Alloc_intf.free addr;
      match a.Alloc_intf.free addr with
      | () -> Alcotest.fail "double free must raise"
      | exception Sanitizer.Violation msg ->
        Alcotest.(check bool) "names double free" true (Astring.String.is_infix ~affix:"double free" msg);
        Alcotest.(check bool) "names the superblock" true (Astring.String.is_infix ~affix:"superblock" msg))

let test_sanitizer_use_after_free () =
  with_san_hoard (fun s a ->
      let addr = a.Alloc_intf.malloc 64 in
      a.Alloc_intf.free addr;
      Alcotest.(check bool) "block quarantined" true (Sanitizer.quarantine_length s > 0);
      (match a.Alloc_intf.usable_size addr with
       | _ -> Alcotest.fail "usable_size of a quarantined block must raise"
       | exception Sanitizer.Violation msg ->
         Alcotest.(check bool) "names the quarantined block" true
           (Astring.String.is_infix ~affix:"quarantined" msg));
      let checker = Sanitizer.access_check s in
      match checker ~addr ~len:8 ~write:false with
      | () -> Alcotest.fail "read of a quarantined block must raise"
      | exception Sanitizer.Violation msg ->
        Alcotest.(check bool) "names use-after-free" true
          (Astring.String.is_infix ~affix:"use-after-free" msg))

let test_sanitizer_overflow_and_canary () =
  with_san_hoard (fun s a ->
      let addr = a.Alloc_intf.malloc 64 in
      let usable = a.Alloc_intf.usable_size addr in
      let checker = Sanitizer.access_check s in
      checker ~addr ~len:usable ~write:true;
      (match checker ~addr ~len:(usable + 8) ~write:true with
       | () -> Alcotest.fail "write past the block end must raise"
       | exception Sanitizer.Violation msg ->
         Alcotest.(check bool) "names overflow" true (Astring.String.is_infix ~affix:"overflow" msg));
      let sb_base = addr - (addr mod Hoard_config.default.Hoard_config.sb_size) in
      match checker ~addr:sb_base ~len:8 ~write:true with
      | () -> Alcotest.fail "write into the superblock header must raise"
      | exception Sanitizer.Violation msg ->
        Alcotest.(check bool) "names the header canary" true (Astring.String.is_infix ~affix:"header" msg))

let test_sanitizer_foreign_and_interior () =
  with_san_hoard (fun _s a ->
      let addr = a.Alloc_intf.malloc 64 in
      (match a.Alloc_intf.free (addr + 4) with
       | () -> Alcotest.fail "interior free must raise"
       | exception Sanitizer.Violation msg ->
         Alcotest.(check bool) "names interior pointer" true (Astring.String.is_infix ~affix:"interior" msg));
      a.Alloc_intf.free addr)

let test_sanitizer_quarantine_drains () =
  with_san_hoard (fun s a ->
      let addrs = Array.init 24 (fun _ -> a.Alloc_intf.malloc 32) in
      Array.iter a.Alloc_intf.free addrs;
      (* Ring capacity 8: the older 16 frees were evicted and completed. *)
      Alcotest.(check int) "quarantine at capacity" 8 (Sanitizer.quarantine_length s);
      Sanitizer.flush_caches s;
      Alcotest.(check int) "flush drains the quarantine" 0 (Sanitizer.quarantine_length s);
      let st = a.Alloc_intf.stats () in
      Alcotest.(check int) "all frees completed" 24 st.Alloc_stats.frees;
      Alcotest.(check int) "nothing live" 0 st.Alloc_stats.live_bytes;
      a.Alloc_intf.check ())

(* A [--set] override rebuilds the whole hoard-san composition: the
   sanitizer must survive a knob change underneath it. *)
let test_sanitizer_survives_overrides () =
  let f =
    Option.get (Allocators.with_overrides (fun c -> { c with Hoard_config.front_end = 4 }) "hoard-san")
  in
  let pf = Platform.host () in
  Fun.protect
    ~finally:(fun () -> Platform.host_release pf)
    (fun () ->
      let a = f.Alloc_intf.instantiate pf in
      let addr = a.Alloc_intf.malloc 64 in
      a.Alloc_intf.free addr;
      match a.Alloc_intf.free addr with
      | () -> Alcotest.fail "double free under an override must raise"
      | exception Sanitizer.Violation _ -> ())

(* Every remaining report site, pinned to its exact message prefix. The
   fixture hands each case the sanitized allocator and its access
   checker only, so the table is independent of how the sanitizer is
   assembled. Superblock-relative addresses come from a fresh block. *)

let san_fixture ~quarantine pf =
  let s = Sanitizer.create ~quarantine pf (Hoard.create pf) in
  (Sanitizer.allocator s, Sanitizer.access_check s, fun () -> Sanitizer.quarantine_length s)

let sanitizer_report_cases =
  let sb_size = Hoard_config.default.Hoard_config.sb_size in
  let base addr = addr - (addr mod sb_size) in
  (* 100 B rounds to a class whose blocks leave slack past the last one. *)
  let tail addr = base addr + sb_size - 8 in
  [
    ("free of foreign pointer", 8, fun (a : Alloc_intf.t) _ -> a.free 0x10);
    ("free of a superblock header address", 8, fun a _ -> a.free (base (a.malloc 64)));
    ("free of a tail-waste address", 8, fun a _ -> a.free (tail (a.malloc 100)));
    ( "realloc of a freed (quarantined) block",
      8,
      fun a _ ->
        let addr = a.malloc 64 in
        a.free addr;
        ignore (a.realloc ~addr ~size:128) );
    ( "usable_size of a dead block",
      0,
      fun a _ ->
        let addr = a.malloc 64 in
        a.free addr;
        ignore (a.usable_size addr) );
    ("read of a superblock header", 8, fun a check -> check ~addr:(base (a.malloc 64)) ~len:8 ~write:false);
    ("access to superblock tail waste", 8, fun a check -> check ~addr:(tail (a.malloc 100)) ~len:8 ~write:true);
  ]

let test_sanitizer_report_sites () =
  List.iter
    (fun (what, quarantine, provoke) ->
      let pf = Platform.host () in
      Fun.protect
        ~finally:(fun () -> Platform.host_release pf)
        (fun () ->
          let a, check, _ = san_fixture ~quarantine pf in
          match provoke a check with
          | () -> Alcotest.fail (what ^ " must raise")
          | exception Sanitizer.Violation msg ->
            let prefix = sprintf "heap sanitizer: %s at 0x" what in
            Alcotest.(check string) what prefix (String.sub msg 0 (min (String.length msg) (String.length prefix)))))
    sanitizer_report_cases

(* The in-simulation entry points complete quarantined frees: the ring's
   8 most recent frees wait until the thread flushes or retires. *)
let test_sanitizer_drains_in_sim () =
  List.iter
    (fun (label, retire) ->
      let sim = Sim.create ~nprocs:2 () in
      let a, _, qlen = san_fixture ~quarantine:8 (Sim.platform sim) in
      let before = ref (0, 0) in
      ignore
        (Sim.spawn sim (fun () ->
             let addrs = Array.init 24 (fun _ -> a.Alloc_intf.malloc 32) in
             Array.iter a.Alloc_intf.free addrs;
             before := (qlen (), (a.Alloc_intf.stats ()).Alloc_stats.frees);
             retire a));
      Sim.run sim;
      Alcotest.(check (pair int int)) (label ^ ": ring full, older frees done") (8, 16) !before;
      Alcotest.(check int) (label ^ " drains the quarantine") 0 (qlen ());
      Alcotest.(check int) (label ^ " completes every free") 24 (a.Alloc_intf.stats ()).Alloc_stats.frees;
      a.Alloc_intf.check ())
    [ ("flush", fun a -> a.Alloc_intf.flush ()); ("thread_exit", fun a -> a.Alloc_intf.thread_exit ()) ]

(* ------------------------------------------------------------------ *)
(* S2: schedule-fuzz determinism — same seed, same run.                *)

let ring_signature obs =
  List.map (fun (name, r) -> (name, Event_ring.recorded r)) (Obs.rings obs)

let run_traced ~fuzz factory_of_obs =
  let obs = Obs.create () in
  let w = Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 3; objects = 1200 } () in
  let spec = Runner.spec w (factory_of_obs obs) ~nprocs:4 in
  let (), r = Runner.run_with ~fuzz ~wrap_allocator:(fun _ a -> ((), a)) spec in
  (ring_signature obs, r.Runner.r_stats, r.Runner.r_cycles)

let test_fuzz_determinism () =
  List.iter
    (fun (label, config) ->
      let factory_of_obs obs = Hoard.factory ~config ~obs () in
      let sig1, stats1, cyc1 = run_traced ~fuzz:42 factory_of_obs in
      let sig2, stats2, cyc2 = run_traced ~fuzz:42 factory_of_obs in
      Alcotest.(check (list (pair string int))) (label ^ ": same ring counts") sig1 sig2;
      Alcotest.(check bool) (label ^ ": same stats") true (stats1 = stats2);
      Alcotest.(check int) (label ^ ": same cycles") cyc1 cyc2)
    (List.map (fun label -> (label, Option.get (Allocators.base_config label))) [ "hoard"; "hoard-fe"; "hoard-gl" ])

(* ------------------------------------------------------------------ *)
(* S3: API edge cases, oracle-checked, across every registry factory.  *)

let test_edge_cases_all_factories () =
  List.iter
    (fun (factory : Alloc_intf.factory) ->
      let label = factory.Alloc_intf.label in
      let sim = Sim.create ~nprocs:1 () in
      let pf = Sim.platform sim in
      let failures = ref [] in
      let expect name f = try f () with e -> failures := sprintf "%s: %s" name (Printexc.to_string e) :: !failures in
      ignore
        (Sim.spawn sim (fun () ->
             let a = factory.Alloc_intf.instantiate pf in
             let o, a = Oracle.wrap pf a in
             expect "malloc 0 rejected" (fun () ->
                 match a.Alloc_intf.malloc 0 with
                 | _ -> failwith "malloc 0 must raise"
                 | exception Invalid_argument _ -> ());
             expect "shrink in place" (fun () ->
                 let addr = a.Alloc_intf.malloc 256 in
                 let r = a.Alloc_intf.realloc ~addr ~size:64 in
                 if a.Alloc_intf.usable_size r < 64 then failwith "shrunk block too small";
                 if r <> addr then failwith "shrink within usable size must stay in place";
                 a.Alloc_intf.free r);
             expect "realloc grow" (fun () ->
                 let addr = a.Alloc_intf.malloc 16 in
                 let r = a.Alloc_intf.realloc ~addr ~size:3000 in
                 if a.Alloc_intf.usable_size r < 3000 then failwith "grown block too small";
                 a.Alloc_intf.free r);
             expect "realloc size 0 rejected" (fun () ->
                 let addr = a.Alloc_intf.malloc 32 in
                 (match a.Alloc_intf.realloc ~addr ~size:0 with
                  | _ -> failwith "realloc size 0 must raise"
                  | exception Invalid_argument _ -> ());
                 a.Alloc_intf.free addr);
             expect "aligned_alloc page alignment" (fun () ->
                 (* Alignment above any superblock size class: served
                    page-aligned from the large path. *)
                 let addr = a.Alloc_intf.aligned_alloc ~align:pf.Platform.page_size ~size:100 in
                 if addr mod pf.Platform.page_size <> 0 then failwith "not page aligned";
                 a.Alloc_intf.free addr);
             expect "aligned_alloc beyond page rejected" (fun () ->
                 match a.Alloc_intf.aligned_alloc ~align:(pf.Platform.page_size * 2) ~size:8 with
                 | _ -> failwith "align > page_size must raise"
                 | exception Invalid_argument _ -> ());
             expect "calloc zeroes and frees" (fun () ->
                 let addr = a.Alloc_intf.calloc ~count:10 ~size:8 in
                 if a.Alloc_intf.usable_size addr < 80 then failwith "calloc too small";
                 a.Alloc_intf.free addr);
             expect "calloc overflow rejected" (fun () ->
                 match a.Alloc_intf.calloc ~count:((max_int / 16) + 1) ~size:16 with
                 | _ -> failwith "overflowing calloc must raise"
                 | exception Invalid_argument _ -> ());
             a.Alloc_intf.check ();
             Oracle.final_check o ~stats:(a.Alloc_intf.stats ());
             if Oracle.live_count o <> 0 then failures := "edge cases leaked blocks" :: !failures));
      Sim.run sim;
      match !failures with
      | [] -> ()
      | fs -> Alcotest.fail (sprintf "%s: %s" label (String.concat "; " (List.rev fs))))
    (Allocators.all () @ Allocators.extras ())

(* ------------------------------------------------------------------ *)
(* S4: registry lookups under real-domain register/unregister churn.   *)

let test_registry_domain_churn () =
  (* One writer domain maps/unmaps superblocks in its own address range;
     three reader domains hammer lookup across all ranges. The wait-free
     snapshot must never yield a superblock that does not span the
     queried address, and lookups of live registrations must hit. *)
  let ndomains = 4 in
  let sb_size = 4096 in
  let pf = Platform.host ~nprocs:ndomains () in
  let reg = Sb_registry.create pf ~sb_size in
  let rounds = 400 in
  let per = 8 in
  let base_of d i = ((d * per) + i + 1) * sb_size in
  let failures = Atomic.make 0 in
  let stop = Atomic.make false in
  let mk d i = Superblock.create ~base:(base_of d i) ~sb_size ~sclass:0 ~block_size:64 in
  let writer d =
    let sbs = Array.init per (mk d) in
    for _ = 1 to rounds do
      Array.iter (fun sb -> Sb_registry.register reg sb) sbs;
      Array.iter
        (fun sb ->
          match Sb_registry.lookup reg ~addr:(Superblock.base sb + 100) with
          | Some got when Superblock.base got = Superblock.base sb -> ()
          | Some _ | None -> Atomic.incr failures)
        sbs;
      Array.iter (fun sb -> Sb_registry.unregister reg sb) sbs
    done
  in
  let reader () =
    let rng = Random.State.make [| 0x5eed |] in
    while not (Atomic.get stop) do
      let d = Random.State.int rng 2 in
      let i = Random.State.int rng per in
      let addr = base_of d i + 8 + Random.State.int rng (sb_size - 16) in
      match Sb_registry.lookup reg ~addr with
      | None -> ()
      | Some sb ->
        if not (Superblock.base sb <= addr && addr < Superblock.base sb + sb_size) then
          Atomic.incr failures
    done
  in
  let doms =
    List.init ndomains (fun d ->
        Domain.spawn (fun () ->
            if d < 2 then writer d
            else reader ()))
  in
  (* Writers are domains 0 and 1; once both finish, stop the readers. *)
  let writers, readers = List.partition (fun (i, _) -> i < 2) (List.mapi (fun i d -> (i, d)) doms) in
  List.iter (fun (_, d) -> Domain.join d) writers;
  Atomic.set stop true;
  List.iter (fun (_, d) -> Domain.join d) readers;
  Alcotest.(check int) "no stale or misplaced lookups" 0 (Atomic.get failures);
  Alcotest.(check int) "registry empty at the end" 0 (Sb_registry.count reg);
  Platform.host_release pf

let () =
  Alcotest.run "check"
    [
      ( "explorer",
        [
          Alcotest.test_case "finds lost update at bound 1" `Quick test_explorer_finds_lost_update;
          Alcotest.test_case "locked update clean" `Quick test_explorer_locked_update_clean;
          Alcotest.test_case "sleep-dfs agrees and prunes" `Quick test_sleep_dfs_agrees_and_prunes;
          Alcotest.test_case "schedule string roundtrip" `Quick test_schedule_string_roundtrip;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "transfer race mutant caught" `Quick test_mutant_transfer_race_caught;
          Alcotest.test_case "real allocator survives race" `Quick test_real_transfer_race_survives;
          Alcotest.test_case "emptiness mutant caught" `Quick test_mutant_emptiness_caught_real_passes;
          Alcotest.test_case "registry churn survives" `Quick test_registry_churn_explored;
        ] );
      ( "lockfree",
        [
          Alcotest.test_case "treiber stack survives bound 2" `Quick test_lockfree_stack_protocol_clean;
          Alcotest.test_case "frozen ABA tag caught" `Quick test_lockfree_stack_aba_mutant_caught;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "deferred list survives bound 2" `Quick test_deferred_list_protocol_clean;
          Alcotest.test_case "lost push caught" `Quick test_deferred_lost_node_mutant_caught;
          Alcotest.test_case "own-heap overflow survives bound 2" `Quick test_deferred_own_overflow_clean;
          Alcotest.test_case "remote queue survives bound 2" `Quick test_remote_queue_drain_clean;
          Alcotest.test_case "large cache survives bound 2" `Quick test_large_cache_protocol_clean;
          Alcotest.test_case "frozen bucket tag caught" `Quick test_large_cache_aba_mutant_caught;
          Alcotest.test_case "deferred vs direct differential" `Quick test_deferred_differential_fuzz;
        ] );
      ( "global",
        [
          Alcotest.test_case "index churn survives bound 2" `Quick test_global_index_churn_clean;
          Alcotest.test_case "frozen entry tag caught" `Quick test_global_no_aba_mutant_caught;
          Alcotest.test_case "busy handshake survives bound 2" `Quick test_global_index_free_clean;
          Alcotest.test_case "blind claim store caught" `Quick test_global_skip_revalidate_mutant_caught;
          Alcotest.test_case "end-to-end transfer survives" `Quick test_global_transfer_explored;
          Alcotest.test_case "global-free shards survive" `Quick test_global_free_shards_explored;
          Alcotest.test_case "lock-free exit adoption survives bound 2" `Quick test_exit_adoption_lockfree_explored;
          Alcotest.test_case "lost orphan caught on the lock-free heap" `Quick
            test_exit_adoption_lockfree_mutant_caught;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "paper workloads green" `Quick test_oracle_workloads_green;
          Alcotest.test_case "workloads green with sanitizer" `Quick test_oracle_sanitizer_workloads_green;
          Alcotest.test_case "workloads green with first-fit" `Quick test_oracle_first_fit_workloads_green;
          Alcotest.test_case "workloads green with lock-free global" `Quick test_oracle_global_workloads_green;
          Alcotest.test_case "false sharing verdicts" `Quick test_oracle_false_sharing_verdicts;
          Alcotest.test_case "oracle catches misbehavior" `Quick test_oracle_catches_misbehavior;
          Alcotest.test_case "server mix batch calls" `Quick test_oracle_server_mix_batches;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "double free" `Quick test_sanitizer_double_free;
          Alcotest.test_case "use after free" `Quick test_sanitizer_use_after_free;
          Alcotest.test_case "overflow and canary" `Quick test_sanitizer_overflow_and_canary;
          Alcotest.test_case "foreign and interior" `Quick test_sanitizer_foreign_and_interior;
          Alcotest.test_case "quarantine drains" `Quick test_sanitizer_quarantine_drains;
          Alcotest.test_case "every report site" `Quick test_sanitizer_report_sites;
          Alcotest.test_case "flush and thread exit drain" `Quick test_sanitizer_drains_in_sim;
          Alcotest.test_case "overrides keep the wrapper" `Quick test_sanitizer_survives_overrides;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "fuzz-schedule determinism" `Quick test_fuzz_determinism;
          Alcotest.test_case "edge cases on every factory" `Quick test_edge_cases_all_factories;
          Alcotest.test_case "registry domain churn" `Quick test_registry_domain_churn;
        ] );
    ]
