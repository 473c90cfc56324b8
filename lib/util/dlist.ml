type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable home : 'a t option;
}

and 'a t = {
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable len : int;
}

let create () = { first = None; last = None; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let push_front t v =
  let n = { v; prev = None; next = t.first; home = Some t } in
  (match t.first with
   | None -> t.last <- Some n
   | Some f -> f.prev <- Some n);
  t.first <- Some n;
  t.len <- t.len + 1;
  n

let push_back t v =
  let n = { v; prev = t.last; next = None; home = Some t } in
  (match t.last with
   | None -> t.first <- Some n
   | Some l -> l.next <- Some n);
  t.last <- Some n;
  t.len <- t.len + 1;
  n

let remove t n =
  (match n.home with
   | Some h when h == t -> ()
   | _ -> invalid_arg "Dlist.remove: node not in this list");
  (match n.prev with
   | None -> t.first <- n.next
   | Some p -> p.next <- n.next);
  (match n.next with
   | None -> t.last <- n.prev
   | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.home <- None;
  t.len <- t.len - 1

let pop_front t =
  match t.first with
  | None -> None
  | Some n ->
    remove t n;
    Some n.v

let peek_front t =
  match t.first with
  | None -> None
  | Some n -> Some n.v

let peek_back t =
  match t.last with
  | None -> None
  | Some n -> Some n.v

let iter f t =
  let rec loop = function
    | None -> ()
    | Some n ->
      let next = n.next in
      f n.v;
      loop next
  in
  loop t.first

let find p t =
  let rec loop = function
    | None -> None
    | Some n -> if p n.v then Some n.v else loop n.next
  in
  loop t.first

let to_list t =
  let rec loop acc = function
    | None -> List.rev acc
    | Some n -> loop (n.v :: acc) n.next
  in
  loop [] t.first
