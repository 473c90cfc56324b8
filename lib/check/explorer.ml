(* Stateless schedule exploration on top of Sim's controlled mode.

   A run is driven by a *schedule*: the list of processors chosen at the
   decision points (steps where more than one processor could go next and
   a context switch is admissible). The explorer replays a scenario under
   schedule prefixes, extends each run with a deterministic default
   policy, and enumerates alternatives Chess-style: the default never
   preempts (it keeps running the current processor until it blocks,
   spins or finishes, considering switches only after synchronisation
   steps), and alternatives that switch away from a still-runnable
   processor spend one unit of the preemption bound. Processors whose
   next step is a doomed lock-acquire retry are never schedulable (Sim
   reports them separately), which keeps the tree finite.

   The Sleep_dfs strategy adds sleep sets: once a choice has been
   explored at a node, it is put to sleep for the node's later siblings
   and pruned at any decision until a dependent step (one touching an
   overlapping cache line with at least one write, or the same lock)
   wakes it. Dependence is computed from the step footprints Sim
   reports. Caveat: communication through plain host state (OCaml refs
   not mirrored by Sim.read/write) is invisible to footprints, so
   sleep-set pruning is only sound for scenarios whose shared state is
   simulated memory or locks; Chess does not prune and has no such
   requirement. *)

type scenario = {
  sc_name : string;
  sc_describe : string;
  sc_nprocs : int;
  sc_build : Sim.t -> Platform.t -> (unit -> unit);
}

type strategy = Chess | Sleep_dfs

type failure = {
  f_schedule : int list;
  f_message : string;
  f_minimize_runs : int;
}

type outcome = {
  o_runs : int;
  o_truncated : bool;
  o_failure : failure option;
}

(* Footprint of one executed step, for dependence tests. *)
type fp = { p_sync : string option; p_reads : int list; p_writes : int list }

let fp_of_report (r : Sim.step_report) = { p_sync = r.sr_sync; p_reads = r.sr_reads; p_writes = r.sr_writes }

let conflicts a b =
  (match (a.p_sync, b.p_sync) with
   | Some x, Some y -> x = y
   | _ -> false)
  || List.exists (fun l -> List.mem l b.p_writes) a.p_writes
  || List.exists (fun l -> List.mem l b.p_writes) a.p_reads
  || List.exists (fun l -> List.mem l a.p_writes) b.p_reads

(* One recorded decision of a run. *)
type decision = {
  d_step : int; (* Sim step index the decision chose for *)
  d_runnable : int list;
  d_last : int option; (* processor of the previous step *)
  d_preemptible : bool; (* the previous processor was still a legal choice *)
  d_chosen : int;
  d_preempts_before : int; (* preemptions among decisions before this one *)
  d_sleep : (int * fp) list; (* active sleep set when the decision was taken *)
}

type run_result = {
  rr_decisions : decision list; (* in order *)
  rr_reports : (int, fp) Hashtbl.t; (* step index -> footprint *)
  rr_failed : string option;
}

(* A run longer than this many steps fails as a livelock. *)
let max_steps = 500_000

(* Execute the scenario once: follow [prefix] at decision points, then
   the default policy. [sleep0] seeds the sleep set (Sleep_dfs); entries
   wake when a dependent step executes. *)
let run_once sc ~prefix ~sleep0 =
  let decisions = ref [] in
  let reports = Hashtbl.create 256 in
  let sleep = ref sleep0 in
  let todo = ref prefix in
  let last_proc = ref None in
  let preempts = ref 0 in
  let control (ch : Sim.choice) =
    (match ch.Sim.ch_last with
     | Some r ->
       let f = fp_of_report r in
       Hashtbl.replace reports r.Sim.sr_step f;
       last_proc := Some r.Sim.sr_proc;
       sleep := List.filter (fun (_, sf) -> not (conflicts f sf)) !sleep
     | None -> ());
    let runnable = ch.Sim.ch_runnable in
    match runnable with
    | [ p ] -> p
    | _ ->
      let last = !last_proc in
      let last_runnable =
        match last with
        | Some p -> List.mem p runnable
        | None -> false
      in
      let switch_point =
        match ch.Sim.ch_last with
        | None -> true
        | Some r -> r.Sim.sr_sync <> None || not last_runnable
      in
      if not switch_point then Option.get last
      else begin
        let default = if last_runnable then Option.get last else List.hd runnable in
        let chosen =
          match !todo with
          | want :: rest when List.mem want runnable ->
            todo := rest;
            want
          | _ :: rest ->
            (* Divergence (possible during minimization trials): drop the
               stale entry and continue with the default. *)
            todo := rest;
            default
          | [] -> default
        in
        decisions :=
          {
            d_step = ch.Sim.ch_step;
            d_runnable = runnable;
            d_last = last;
            d_preemptible = last_runnable;
            d_chosen = chosen;
            d_preempts_before = !preempts;
            d_sleep = !sleep;
          }
          :: !decisions;
        if last_runnable && chosen <> Option.get last then incr preempts;
        chosen
      end
  in
  let failed =
    try
      let sim = Sim.create ~control ~nprocs:sc.sc_nprocs () in
      let pf = Sim.platform sim in
      let check = sc.sc_build sim pf in
      Sim.run ~max_steps sim;
      check ();
      None
    with
    | Sim.Deadlock msg -> Some (Printf.sprintf "deadlock: %s" msg)
    | e -> Some (Printexc.to_string e)
  in
  { rr_decisions = List.rev !decisions; rr_reports = reports; rr_failed = failed }

let schedule_to_string s = String.concat "," (List.map string_of_int s)

let schedule_of_string str =
  match String.trim str with
  | "" -> []
  | str -> List.map (fun tok -> int_of_string (String.trim tok)) (String.split_on_char ',' str)

let replay sc ~schedule =
  let r = run_once sc ~prefix:schedule ~sleep0:[] in
  match r.rr_failed with
  | None -> Ok ()
  | Some msg -> Error msg

let minimize_budget = 300

(* Shrink a failing schedule: first truncate to the shortest failing
   prefix, then greedily drop single decisions. Every trial is one run;
   [minimize_budget] bounds them. *)
let minimize sc ~schedule =
  let trials = ref 0 in
  let fails s =
    if !trials >= minimize_budget then false
    else begin
      incr trials;
      match replay sc ~schedule:s with
      | Ok () -> false
      | Error _ -> true
    end
  in
  let arr = Array.of_list schedule in
  let n = Array.length arr in
  let best = ref schedule in
  (try
     for k = 0 to n - 1 do
       let cand = Array.to_list (Array.sub arr 0 k) in
       if fails cand then begin
         best := cand;
         raise Exit
       end
     done
   with Exit -> ());
  let changed = ref true in
  while !changed && !trials < minimize_budget do
    changed := false;
    let cur = Array.of_list !best in
    let m = Array.length cur in
    (try
       for i = 0 to m - 1 do
         let cand = Array.to_list (Array.append (Array.sub cur 0 i) (Array.sub cur (i + 1) (m - i - 1))) in
         if fails cand then begin
           best := cand;
           changed := true;
           raise Exit
         end
       done
     with Exit -> ())
  done;
  (!best, !trials)

type job = { j_prefix : int list; j_expand_from : int; j_sleep0 : (int * fp) list }

let explore ?(strategy = Chess) ?(bound = 2) ?(max_runs = 10_000) sc =
  let runs = ref 0 in
  let truncated = ref false in
  let failure = ref None in
  let stack = ref [ { j_prefix = []; j_expand_from = 0; j_sleep0 = [] } ] in
  while !failure = None && !stack <> [] && not !truncated do
    match !stack with
    | [] -> ()
    | job :: rest ->
      stack := rest;
      if !runs >= max_runs then truncated := true
      else begin
        incr runs;
        let r = run_once sc ~prefix:job.j_prefix ~sleep0:job.j_sleep0 in
        match r.rr_failed with
        | Some msg ->
          let full = List.map (fun d -> d.d_chosen) r.rr_decisions in
          let shrunk, trials = minimize sc ~schedule:full in
          failure := Some { f_schedule = shrunk; f_message = msg; f_minimize_runs = trials }
        | None ->
          (* Expand alternatives at decisions past the inherited prefix
             (earlier ones belong to ancestors). Push in reverse so the
             leftmost alternative is explored first (depth-first). *)
          let ds = Array.of_list r.rr_decisions in
          let chosen_prefix i = List.filteri (fun j _ -> j < i) (List.map (fun d -> d.d_chosen) r.rr_decisions) in
          for i = Array.length ds - 1 downto job.j_expand_from do
            let d = ds.(i) in
            let sleeping p = strategy = Sleep_dfs && List.mem_assoc p d.d_sleep in
            List.iter
              (fun a ->
                if a <> d.d_chosen && not (sleeping a) then begin
                  let extra = if d.d_preemptible then 1 else 0 in
                  if d.d_preempts_before + extra <= bound then begin
                    let sleep0 =
                      if strategy <> Sleep_dfs then []
                      else begin
                        (* The explored choice at this node goes to sleep
                           for this sibling, with the footprint of the
                           step it performed. *)
                        match Hashtbl.find_opt r.rr_reports d.d_step with
                        | Some f -> (d.d_chosen, f) :: d.d_sleep
                        | None -> d.d_sleep
                      end
                    in
                    stack := { j_prefix = chosen_prefix i @ [ a ]; j_expand_from = i + 1; j_sleep0 = sleep0 } :: !stack
                  end
                end)
              (List.rev d.d_runnable)
          done
      end
  done;
  { o_runs = !runs; o_truncated = !truncated; o_failure = !failure }
