(* Exact distribution of integer samples, kept as one count per distinct
   value: latencies in simulated cycles repeat heavily, so millions of
   samples fit in a few thousand entries and quantiles stay exact. *)

type t = { counts : (int, int ref) Hashtbl.t; mutable n : int }

let create () = { counts = Hashtbl.create 1024; n = 0 }

let add t v =
  (match Hashtbl.find_opt t.counts v with
   | Some c -> incr c
   | None -> Hashtbl.add t.counts v (ref 1));
  t.n <- t.n + 1

let count t = t.n

(* Adds every sample of [src] to [dst]. *)
let merge ~into src =
  Hashtbl.iter
    (fun v c ->
      match Hashtbl.find_opt into.counts v with
      | Some d -> d := !d + !c
      | None -> Hashtbl.add into.counts v (ref !c))
    src.counts;
  into.n <- into.n + src.n

(* Nearest-rank quantile: the smallest sample with at least ceil(q * n)
   samples at or below it. *)
let quantile t q =
  if t.n = 0 then invalid_arg "Dist.quantile: no samples";
  let sorted = List.sort compare (Hashtbl.fold (fun v c acc -> (v, !c) :: acc) t.counts []) in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
  let rec walk seen = function
    | (v, c) :: rest -> if seen + c >= rank then v else walk (seen + c) rest
    | [] -> assert false
  in
  walk 0 sorted
