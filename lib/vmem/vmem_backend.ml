(* Reuse policies for the simulated address space.

   A backend owns the *free* portion of the address range Vmem has bump-
   allocated so far; the shell keeps the live-region interval index and
   all accounting. The contract is byte-exact: [take ~bytes ~align]
   either returns an aligned base and debits exactly [bytes] from the
   backend's free pool, or returns [None]; [give ~addr ~bytes] credits
   exactly [bytes]. The shell relies on this for its conservation
   invariant (free + live = bump frontier - base), so backends that
   carve oversized chunks (buddy) must return the surplus to themselves
   before answering. *)

type kind = Exact | First_fit | Buddy

let kind_name = function Exact -> "exact" | First_fit -> "first-fit" | Buddy -> "buddy"

let all_kinds = [ Exact; First_fit; Buddy ]

let kind_of_string s =
  match String.lowercase_ascii s with
  | "exact" -> Some Exact
  | "first-fit" | "first_fit" | "firstfit" | "ff" -> Some First_fit
  | "buddy" -> Some Buddy
  | _ -> None

type t = {
  be_kind : kind;
  take : bytes:int -> align:int -> int option;
  give : addr:int -> bytes:int -> unit;
  free_bytes : unit -> int;
  check : unit -> unit;
}

let round_up x align = (x + align - 1) land lnot (align - 1)

(* ------------------------------------------------------------------ *)
(* Exact-size reuse: the seed policy. A freed region is only ever
   reused for a request of the same (page-rounded) size whose alignment
   its base happens to satisfy. Cheap and deterministic, but requests of
   a size never freed always extend the bump frontier. *)

let make_exact () =
  let free_by_size : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let free = ref 0 in
  let take ~bytes ~align =
    match Hashtbl.find_opt free_by_size bytes with
    | None -> None
    | Some lst ->
      let rec pick acc = function
        | [] -> None
        | addr :: rest when addr land (align - 1) = 0 ->
          lst := List.rev_append acc rest;
          free := !free - bytes;
          Some addr
        | addr :: rest -> pick (addr :: acc) rest
      in
      pick [] !lst
  in
  let give ~addr ~bytes =
    let lst =
      match Hashtbl.find_opt free_by_size bytes with
      | Some lst -> lst
      | None ->
        let lst = ref [] in
        Hashtbl.replace free_by_size bytes lst;
        lst
    in
    lst := addr :: !lst;
    free := !free + bytes
  in
  let check () =
    let total = Hashtbl.fold (fun sz lst acc -> acc + (sz * List.length !lst)) free_by_size 0 in
    if total <> !free then
      failwith
        (Printf.sprintf "Vmem_backend(exact): free-list total %d <> accounted free %d" total !free)
  in
  { be_kind = Exact; take; give; free_bytes = (fun () -> !free); check }

(* ------------------------------------------------------------------ *)
(* Coalescing first-fit: free chunks in an address-ordered map, merged
   with both neighbours on release, carved (head gap / tail remainder
   returned to the pool) on allocation. First fit = lowest usable
   address, which keeps the address space compact under churn. *)

module Imap = Map.Make (Int)

let make_first_fit () =
  let chunks = ref Imap.empty in
  (* addr -> size, fully coalesced *)
  let free = ref 0 in
  let overlap a = failwith (Printf.sprintf "Vmem_backend(first-fit): overlapping free at %#x" a) in
  let give ~addr ~bytes =
    (* Credit only the caller's bytes — merged neighbours are already
       counted in [free]. *)
    let given = bytes in
    let addr, bytes =
      match Imap.find_last_opt (fun a -> a < addr) !chunks with
      | Some (a, sz) when a + sz > addr -> overlap addr
      | Some (a, sz) when a + sz = addr ->
        chunks := Imap.remove a !chunks;
        (a, sz + bytes)
      | _ -> (addr, bytes)
    in
    let bytes =
      match Imap.find_first_opt (fun a -> a > addr) !chunks with
      | Some (a, _) when addr + bytes > a -> overlap addr
      | Some (a, sz) when addr + bytes = a ->
        chunks := Imap.remove a !chunks;
        bytes + sz
      | _ -> bytes
    in
    chunks := Imap.add addr bytes !chunks;
    free := !free + given
  in
  let take ~bytes ~align =
    let exception Found of int * int * int in
    (* chunk base, chunk size, aligned carve start *)
    match
      Imap.iter
        (fun a sz ->
          let aligned = round_up a align in
          if aligned + bytes <= a + sz then raise (Found (a, sz, aligned)))
        !chunks
    with
    | () -> None
    | exception Found (a, sz, aligned) ->
      chunks := Imap.remove a !chunks;
      if aligned > a then chunks := Imap.add a (aligned - a) !chunks;
      let tail = a + sz - (aligned + bytes) in
      if tail > 0 then chunks := Imap.add (aligned + bytes) tail !chunks;
      free := !free - bytes;
      Some aligned
  in
  let check () =
    let total = ref 0 and prev = ref None in
    Imap.iter
      (fun a sz ->
        if sz <= 0 then failwith "Vmem_backend(first-fit): empty chunk";
        (match !prev with
         | Some (pa, psz) ->
           if pa + psz > a then overlap a;
           if pa + psz = a then
             failwith (Printf.sprintf "Vmem_backend(first-fit): uncoalesced neighbours at %#x" a)
         | None -> ());
        prev := Some (a, sz);
        total := !total + sz)
      !chunks;
    if !total <> !free then
      failwith
        (Printf.sprintf "Vmem_backend(first-fit): chunk total %d <> accounted free %d" !total !free)
  in
  { be_kind = First_fit; take; give; free_bytes = (fun () -> !free); check }

(* ------------------------------------------------------------------ *)
(* Binary buddy: free chunks are power-of-two sized and size-aligned;
   a freed chunk merges with its buddy (addr lxor size) whenever the
   buddy is wholly free at the same order, recursively. Arbitrary
   page-multiple regions are accepted by splitting them into maximal
   aligned power-of-two pieces, so the backend composes with the
   shell's page-rounded (not power-of-two-rounded) regions: [take]
   internally grabs a chunk of order >= the request and immediately
   re-releases the tail. *)

let make_buddy () =
  let max_order = 48 in
  let lists = Array.make (max_order + 1) [] in
  let order_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
  (* addr -> order, the authoritative free set; list entries are lazily
     invalidated (merges remove from the table only). *)
  let free = ref 0 in
  let push a k =
    lists.(k) <- a :: lists.(k);
    Hashtbl.replace order_of a k
  in
  let rec pop k =
    match lists.(k) with
    | [] -> None
    | a :: rest ->
      lists.(k) <- rest;
      if Hashtbl.find_opt order_of a = Some k then begin
        Hashtbl.remove order_of a;
        Some a
      end
      else pop k
  in
  (* Free one size-aligned chunk of order [k], merging with free buddies. *)
  let rec release a k =
    let buddy = a lxor (1 lsl k) in
    if k < max_order && Hashtbl.find_opt order_of buddy = Some k then begin
      Hashtbl.remove order_of buddy;
      release (min a buddy) (k + 1)
    end
    else push a k
  in
  let ntz x =
    let rec go x n = if x land 1 = 1 then n else go (x lsr 1) (n + 1) in
    if x = 0 then max_order else go x 0
  in
  let floor_log2 x =
    let rec go x n = if x <= 1 then n else go (x lsr 1) (n + 1) in
    go x 0
  in
  let ceil_log2 x =
    let f = floor_log2 x in
    if 1 lsl f = x then f else f + 1
  in
  (* Split [addr, addr+bytes) into maximal aligned power-of-two chunks. *)
  let rec carve a remaining =
    if remaining > 0 then begin
      let k = min (min (ntz a) (floor_log2 remaining)) max_order in
      release a k;
      carve (a + (1 lsl k)) (remaining - (1 lsl k))
    end
  in
  let give ~addr ~bytes =
    carve addr bytes;
    free := !free + bytes
  in
  let take ~bytes ~align =
    (* A chunk of order k is 2^k-aligned, so order >= log2 align suffices. *)
    let nk = max (ceil_log2 bytes) (ceil_log2 align) in
    if nk > max_order then None
    else begin
      let rec find k = if k > max_order then None else match pop k with Some a -> Some (a, k) | None -> find (k + 1) in
      match find nk with
      | None -> None
      | Some (a, k) ->
        (* Keep the low half at each split; the request needs only 2^nk. *)
        for j = k - 1 downto nk do
          push (a + (1 lsl j)) j
        done;
        (* Return the unrequested tail of the 2^nk chunk to the pool. *)
        if 1 lsl nk > bytes then carve (a + bytes) ((1 lsl nk) - bytes);
        free := !free - bytes;
        Some a
    end
  in
  let check () =
    let live = Hashtbl.fold (fun a k acc -> (a, k) :: acc) order_of [] in
    let live = List.sort compare live in
    let total = ref 0 and prev_end = ref min_int in
    List.iter
      (fun (a, k) ->
        let sz = 1 lsl k in
        if a land (sz - 1) <> 0 then
          failwith (Printf.sprintf "Vmem_backend(buddy): chunk %#x not aligned to its order %d" a k);
        if a < !prev_end then failwith (Printf.sprintf "Vmem_backend(buddy): overlapping chunk at %#x" a);
        if k < max_order && Hashtbl.find_opt order_of (a lxor sz) = Some k then
          failwith (Printf.sprintf "Vmem_backend(buddy): unmerged buddy pair at %#x order %d" a k);
        prev_end := a + sz;
        total := !total + sz)
      live;
    if !total <> !free then
      failwith (Printf.sprintf "Vmem_backend(buddy): chunk total %d <> accounted free %d" !total !free)
  in
  { be_kind = Buddy; take; give; free_bytes = (fun () -> !free); check }

let create kind =
  match kind with
  | Exact -> make_exact ()
  | First_fit -> make_first_fit ()
  | Buddy -> make_buddy ()
