type op =
  | Malloc of { id : int; size : int; tid : int }
  | Free of { id : int; tid : int }

type t = { mutable ops : op array; mutable len : int }

let create () = { ops = Array.make 64 (Free { id = 0; tid = 0 }); len = 0 }

let add t op =
  if t.len = Array.length t.ops then begin
    let bigger = Array.make (2 * t.len) op in
    Array.blit t.ops 0 bigger 0 t.len;
    t.ops <- bigger
  end;
  t.ops.(t.len) <- op;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  t.ops.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.ops.(i)
  done

let of_list ops =
  let t = create () in
  List.iter (add t) ops;
  t

let to_list t = Array.to_list (Array.sub t.ops 0 t.len)

let validate t =
  let live = Hashtbl.create 256 in
  let err = ref None in
  (try
     iter
       (function
         | Malloc { id; size; _ } ->
           if size <= 0 then raise (Failure (Printf.sprintf "malloc id %d: non-positive size %d" id size));
           if Hashtbl.mem live id then raise (Failure (Printf.sprintf "malloc of live id %d" id));
           Hashtbl.replace live id size
         | Free { id; _ } ->
           if not (Hashtbl.mem live id) then raise (Failure (Printf.sprintf "free of dead id %d" id));
           Hashtbl.remove live id)
       t
   with Failure m -> err := Some m);
  match !err with
  | Some m -> Error m
  | None -> Ok ()

let live_at_end t =
  let live = Hashtbl.create 256 in
  iter
    (function
      | Malloc { id; size; _ } -> Hashtbl.replace live id size
      | Free { id; _ } -> Hashtbl.remove live id)
    t;
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) live [])

let max_live_bytes t =
  let live = Hashtbl.create 256 in
  let cur = ref 0 and peak = ref 0 in
  iter
    (function
      | Malloc { id; size; _ } ->
        Hashtbl.replace live id size;
        cur := !cur + size;
        if !cur > !peak then peak := !cur
      | Free { id; _ } ->
        (match Hashtbl.find_opt live id with
         | Some size ->
           cur := !cur - size;
           Hashtbl.remove live id
         | None -> ()))
    t;
  !peak

(* --- generation --- *)

type size_dist =
  | Uniform of int * int
  | Geometric of { min_size : int; mean : float; max_size : int }
  | Mixed of (float * size_dist) list

let rec draw_size rng = function
  | Uniform (lo, hi) -> Rng.int_in rng lo hi
  | Geometric { min_size; mean; max_size } ->
    let x = min_size + int_of_float (Rng.exponential rng mean) in
    min x max_size
  | Mixed weighted ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let r = Rng.float rng total in
    let rec pick acc = function
      | [ (_, d) ] -> d
      | (w, d) :: rest -> if r < acc +. w then d else pick (acc +. w) rest
      | [] -> invalid_arg "Trace.draw_size: empty mixture"
    in
    draw_size rng (pick 0.0 weighted)

let generate ?(seed = 42) ~ops ~threads ~live_target ~size_dist () =
  if threads < 1 then invalid_arg "Trace.generate: threads must be >= 1";
  let rng = Rng.create seed in
  let t = create () in
  let next_id = ref 0 in
  let live = Array.make threads [] in
  let live_count = Array.make threads 0 in
  for _ = 1 to ops do
    let tid = Rng.int rng threads in
    (* Allocation probability decays as the thread's live set approaches
       twice the target, regulating around live_target. *)
    let p_alloc =
      if live_count.(tid) = 0 then 1.0
      else Float.max 0.05 (1.0 -. (float_of_int live_count.(tid) /. float_of_int (2 * live_target)))
    in
    if Rng.float rng 1.0 < p_alloc then begin
      let id = !next_id in
      incr next_id;
      add t (Malloc { id; size = draw_size rng size_dist; tid });
      live.(tid) <- id :: live.(tid);
      live_count.(tid) <- live_count.(tid) + 1
    end
    else begin
      match live.(tid) with
      | [] -> ()
      | id :: rest ->
        add t (Free { id; tid });
        live.(tid) <- rest;
        live_count.(tid) <- live_count.(tid) - 1
    end
  done;
  (* Drain: free everything so traces end clean. *)
  Array.iteri (fun tid ids -> List.iter (fun id -> add t (Free { id; tid })) ids) live;
  t

(* --- serialisation --- *)

let to_string t =
  let buf = Buffer.create (t.len * 12) in
  iter
    (function
      | Malloc { id; size; tid } -> Buffer.add_string buf (Printf.sprintf "m %d %d %d\n" id size tid)
      | Free { id; tid } -> Buffer.add_string buf (Printf.sprintf "f %d %d\n" id tid))
    t;
  Buffer.contents buf

let of_string s =
  let t = create () in
  let err = ref None in
  List.iteri
    (fun lineno line ->
      if !err = None && String.trim line <> "" then
        match String.split_on_char ' ' (String.trim line) with
        | [ "m"; id; size; tid ] ->
          (match (int_of_string_opt id, int_of_string_opt size, int_of_string_opt tid) with
           | Some id, Some size, Some tid -> add t (Malloc { id; size; tid })
           | _ -> err := Some (Printf.sprintf "line %d: bad malloc" (lineno + 1)))
        | [ "f"; id; tid ] ->
          (match (int_of_string_opt id, int_of_string_opt tid) with
           | Some id, Some tid -> add t (Free { id; tid })
           | _ -> err := Some (Printf.sprintf "line %d: bad free" (lineno + 1)))
        | _ -> err := Some (Printf.sprintf "line %d: unrecognised op" (lineno + 1)))
    (String.split_on_char '\n' s);
  match !err with
  | Some m -> Error m
  | None -> Ok t

(* --- replay --- *)

type replay_stats = { replayed_ops : int; replay_peak_live : int }

let replay t (a : Alloc_intf.t) =
  let addr_of = Hashtbl.create 256 in
  let size_of = Hashtbl.create 256 in
  let cur = ref 0 and peak = ref 0 in
  iter
    (function
      | Malloc { id; size; _ } ->
        Hashtbl.replace addr_of id (a.Alloc_intf.malloc size);
        Hashtbl.replace size_of id size;
        cur := !cur + size;
        if !cur > !peak then peak := !cur
      | Free { id; _ } ->
        (match Hashtbl.find_opt addr_of id with
         | Some addr ->
           a.Alloc_intf.free addr;
           Hashtbl.remove addr_of id;
           cur := !cur - (try Hashtbl.find size_of id with Not_found -> 0)
         | None -> invalid_arg (Printf.sprintf "Trace.replay: free of unknown id %d" id)))
    t;
  { replayed_ops = t.len; replay_peak_live = !peak }

let window = 1024

let replay_sim t sim (a : Alloc_intf.t) ~nthreads =
  if nthreads < 1 then invalid_arg "Trace.replay_sim: nthreads must be >= 1";
  let addr_of = Hashtbl.create 256 in
  let barrier = Sim.new_barrier sim ~parties:nthreads in
  let nwindows = (t.len + window - 1) / window in
  for me = 0 to nthreads - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           let pending = ref [] in
           let try_free id =
             match Hashtbl.find_opt addr_of id with
             | Some addr ->
               a.Alloc_intf.free addr;
               Hashtbl.remove addr_of id;
               true
             | None -> false
           in
           for w = 0 to nwindows - 1 do
             (* Retry frees deferred from earlier windows first. *)
             pending := List.filter (fun id -> not (try_free id)) !pending;
             for i = w * window to min ((w + 1) * window) t.len - 1 do
               match t.ops.(i) with
               | Malloc { id; size; tid } ->
                 if tid mod nthreads = me then Hashtbl.replace addr_of id (a.Alloc_intf.malloc size)
               | Free { id; tid } -> if tid mod nthreads = me && not (try_free id) then pending := id :: !pending
             done;
             Sim.barrier_wait barrier
           done;
           (* Frees may still chase mallocs that landed in the final
              window; bounded retry with a barrier per round. *)
           let rounds = ref 0 in
           while !pending <> [] && !rounds < nwindows + 2 do
             pending := List.filter (fun id -> not (try_free id)) !pending;
             incr rounds;
             Sim.barrier_wait barrier
           done;
           while !rounds < nwindows + 2 do
             incr rounds;
             Sim.barrier_wait barrier
           done;
           if !pending <> [] then failwith "Trace.replay_sim: unresolvable frees (invalid trace?)"))
  done

let workload t =
  {
    Workload_intf.w_name = "trace";
    w_describe = Printf.sprintf "replay of a %d-op allocation trace" t.len;
    spawn = (fun sim _pf a ~nthreads -> replay_sim t sim a ~nthreads);
    total_ops = (fun ~nthreads:_ -> t.len);
  }
