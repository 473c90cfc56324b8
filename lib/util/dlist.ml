type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable home : 'a t option;
}

and 'a t = {
  mutable first : 'a node option;
  mutable len : int;
}

let create () = { first = None; len = 0 }

let length t = t.len

let push_front t v =
  let n = { v; prev = None; next = t.first; home = Some t } in
  (match t.first with
   | None -> ()
   | Some f -> f.prev <- Some n);
  t.first <- Some n;
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
   | None -> ()
   | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.home <- None;
  t.len <- t.len - 1

let peek_front t =
  match t.first with
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
