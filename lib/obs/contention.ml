type entry = {
  c_name : string;
  c_acqs : int;
  c_spins : int;
  c_contended : int;
  c_max_spin : int;
  c_spin_cycles : int;
}

(* Per-acquisition accumulator, fed by the simulator's lock hooks. *)
type acc = { mutable a_contended : int; mutable a_max_spin : int }

type t = { table : (string, acc) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let on_acquire t ~name ~spins =
  if spins > 0 then begin
    let a =
      match Hashtbl.find_opt t.table name with
      | Some a -> a
      | None ->
        let a = { a_contended = 0; a_max_spin = 0 } in
        Hashtbl.add t.table name a;
        a
    in
    a.a_contended <- a.a_contended + 1;
    if spins > a.a_max_spin then a.a_max_spin <- spins
  end

let finalize t ~lock_stats ~spin_cost =
  let entries =
    List.map
      (fun (name, acqs, spins) ->
        let contended, max_spin =
          match Hashtbl.find_opt t.table name with
          | Some a -> (a.a_contended, a.a_max_spin)
          | None -> (0, 0)
        in
        {
          c_name = name;
          c_acqs = acqs;
          c_spins = spins;
          c_contended = contended;
          c_max_spin = max_spin;
          c_spin_cycles = spins * spin_cost;
        })
      lock_stats
  in
  List.stable_sort (fun a b -> compare (b.c_spin_cycles, b.c_acqs) (a.c_spin_cycles, a.c_acqs)) entries

let of_lock_stats lock_stats = finalize (create ()) ~lock_stats ~spin_cost:1

let spins_per_acq e = if e.c_acqs = 0 then 0.0 else float_of_int e.c_spins /. float_of_int e.c_acqs

let top ?(n = 10) entries =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | e :: rest -> e :: take (k - 1) rest
  in
  take n entries

let publish entries metrics =
  List.iter
    (fun e ->
      let labels = [ ("lock", e.c_name) ] in
      Metrics.register metrics ~name:"lock.acquisitions" ~labels (fun () -> Metrics.Int e.c_acqs);
      Metrics.register metrics ~name:"lock.spins" ~labels (fun () -> Metrics.Int e.c_spins);
      Metrics.register metrics ~name:"lock.spin_cycles" ~labels (fun () -> Metrics.Int e.c_spin_cycles))
    entries
