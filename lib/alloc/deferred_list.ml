(* Intrusive deferred free list: the rpmalloc/jdz-style replacement for
   a heap's bounded remote-free queue.

   A producer (a thread freeing a block whose superblock belongs to
   another heap) pushes the block itself onto the owner's list: the
   block's first word becomes the intrusive next-link, and publication
   is a single CAS on the list head — wait-free on the uncontended fast
   path, lock-free under contention, never locking the owner. The list
   itself is unbounded; a push may carry a cap instead, and then bails
   without publishing when the list would grow past it (the caller
   frees the blocks some other way). The owner reclaims the entire list
   with one exchange (head := 0) during its next fill/flush/trim and
   walks it privately, so consumption costs one atomic regardless of
   length. Several consumers (threads sharing the owner heap) may
   reclaim concurrently: each exchange hands its caller a disjoint
   chain.

   Because producers only push and consumers only take the whole list
   atomically, the classic Treiber ABA hazard does not arise: a
   push whose observed head was reclaimed-and-readvanced back to the
   same address still links a consistent list (its next-link equals the
   current head by value, and value equality is all the structure
   needs). Hence no generation tag, unlike {!Lockfree}.

   Representation: the simulated machine carries only the head word and
   the per-block link stores/loads (so the protocol's coherence traffic
   and schedule interleavings are real); the link *values* live in a
   host-side table under a host mutex, the established idiom for
   oracle/sanitizer state — blocks are private until the CAS publishes
   them and private again after the exchange, so the table is only ever
   touched on the winning side of an atomic and stays schedule-exact. *)

type node = {
  dn_next : int; (* 0 terminates *)
  dn_sb : Superblock.t;
}

type t = {
  pf : Platform.t;
  head : Platform.atomic_int; (* 0 = empty, else address of the top block *)
  links : (int, node) Hashtbl.t;
  mu : Mutex.t;
  lost_node : bool; (* mutant: a failed push CAS is treated as success *)
  on_retry : unit -> unit;
  mutable n_len : int;
  mutable n_bytes : int; (* block bytes listed; same convention as [n_len] *)
}

let create (pf : Platform.t) ~name ?(lost_node = false) ?(on_retry = fun () -> ()) () =
  {
    pf;
    head = pf.Platform.new_atomic (name ^ ".head") 0;
    links = Hashtbl.create 64;
    mu = Mutex.create ();
    lost_node;
    on_retry;
    n_len = 0;
    n_bytes = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let block_bytes items = List.fold_left (fun acc (sb, _) -> acc + Superblock.block_size sb) 0 items

(* Producer side. Every [addr] must be a live block of its superblock
   (never 0: block addresses sit past a superblock header), and its
   [link] the value its first word already holds (0 when none is known).
   The whole batch is linked into a private chain, on the blocks' own
   lines, and published with a single CAS on the head, so an eviction
   batch costs one head-line transfer regardless of its size. An
   interior link is stored only where the word does not already hold the
   next block of the batch: a front-end cache's frees link each block to
   the one freed before it, so a batch in the cache's newest-first order
   arrives linked, and a detached chain re-pushed in chain order keeps
   its links. Only the tail link depends on the observed head, so it is
   always stored, and a retry re-patches that one word, not the chain.

   With [cap], the push bails (returns [false], nothing published) when
   the batch would take the list past [cap] blocks. It tests the host
   count right after a head load, in the same simulated step, so the
   count stands for one packed beside the head word and costs no access
   of its own; the byte total beside it (the blocks' sizes, summed) is
   the same kind of word. A push raises both in its CAS's step; a
   reclaim lowers them only after its walk, so a push landing mid-walk
   still counts the detached chain and can only bail early. A capped
   push loads the head once before it writes any link, so a batch that
   cannot fit bails having written nothing; one that fits then writes
   its interior links and loads and tests again before the tail link
   and CAS, as an uncapped push does, so the load the CAS depends on
   still follows the link writes and an uncapped push's schedule does
   not depend on [cap]. A bail at the second test (a concurrent push
   filled the list in between) wastes the interior links and drops
   their host entries. *)
let push_many ?cap t items =
  let n = List.length items in
  (* Load the head; the batch fits when the count beside it leaves room. *)
  let load_head () =
    let next = t.head.Platform.load () in
    (next, match cap with None -> true | Some cap -> locked t (fun () -> t.n_len) + n <= cap)
  in
  match items with
  | [] -> true
  | _ when cap <> None && not (snd (load_head ())) -> false
  | (_, first_addr, _) :: _ ->
    let rec interior = function
      | (sb, addr, link) :: ((_, next_addr, _) :: _ as rest) ->
        if link <> next_addr then t.pf.Platform.write ~addr ~len:8;
        locked t (fun () -> Hashtbl.replace t.links addr { dn_next = next_addr; dn_sb = sb });
        interior rest
      | [ (sb, addr, _) ] -> (sb, addr)
      | [] -> assert false
    in
    let last_sb, last_addr = interior items in
    let bytes = List.fold_left (fun acc (sb, _, _) -> acc + Superblock.block_size sb) 0 items in
    let unlink () = locked t (fun () -> List.iter (fun (_, addr, _) -> Hashtbl.remove t.links addr) items) in
    let rec attempt () =
      match load_head () with
      | _, false ->
        unlink ();
        false
      | next, true ->
        (* Store the tail link into the (still private) block body. *)
        t.pf.Platform.write ~addr:last_addr ~len:8;
        locked t (fun () -> Hashtbl.replace t.links last_addr { dn_next = next; dn_sb = last_sb });
        if t.head.Platform.cas ~expected:next ~desired:first_addr then begin
          locked t (fun () ->
              t.n_len <- t.n_len + n;
              t.n_bytes <- t.n_bytes + bytes);
          true
        end
        else begin
          t.on_retry ();
          if t.lost_node then begin
            (* Mutant: pretend the failed CAS succeeded. The chain is now
               on no list and will never be reclaimed — a silent leak that
               only materialises under producer contention. *)
            unlink ();
            true
          end
          else attempt ()
        end
    in
    attempt ()

(* Walk a privately-owned chain starting at [h], removing link entries.
   Each hop is a real load of the block's link word. *)
let walk t ~charged h =
  let rec go acc addr =
    if addr = 0 then List.rev acc
    else begin
      if charged then t.pf.Platform.read ~addr ~len:8;
      match locked t (fun () -> Hashtbl.find_opt t.links addr) with
      | None -> failwith (Printf.sprintf "Deferred_list(%s): node %#x without payload" t.head.Platform.atomic_name addr)
      | Some n ->
        locked t (fun () -> Hashtbl.remove t.links addr);
        go ((n.dn_sb, addr) :: acc) n.dn_next
    end
  in
  go [] h

(* Lower the count and the byte total by a detached chain. Its blocks
   are live, so no superblock was re-carved since the push summed them. *)
let uncount t items =
  let bytes = block_bytes items in
  locked t (fun () ->
      t.n_len <- t.n_len - List.length items;
      t.n_bytes <- t.n_bytes - bytes)

(* Consumer side: one exchange detaches the whole list. The load+CAS
   loop is an exchange — it only retries when a concurrent push lands
   between the load and the CAS, and then succeeds against the new head. *)
let reclaim t =
  let rec grab () =
    let h = t.head.Platform.load () in
    if h = 0 then 0
    else if t.head.Platform.cas ~expected:h ~desired:0 then h
    else begin
      t.on_retry ();
      grab ()
    end
  in
  let h = grab () in
  if h = 0 then []
  else begin
    let items = walk t ~charged:true h in
    uncount t items;
    items
  end

(* Quiescent drain for post-run teardown: no simulated-machine effects
   (callable from outside any simulated thread), same result. *)
let drain_quiescent t =
  let h = t.head.Platform.peek () in
  if h = 0 then []
  else begin
    t.head.Platform.poke 0;
    let items = walk t ~charged:false h in
    uncount t items;
    items
  end

(* A detached chain's blocks with the link each holds: the next block's
   address, 0 for the last. *)
let rec linked = function
  | (sb, addr) :: ((_, next) :: _ as rest) -> (sb, addr, next) :: linked rest
  | [ (sb, addr) ] -> [ (sb, addr, 0) ]
  | [] -> []

let length t = locked t (fun () -> t.n_len)

let bytes t = locked t (fun () -> t.n_bytes)


(* Quiescent structural check: walks the chain without consuming it,
   detecting cycles, payload-less nodes and a length or byte total
   drifting from the push/reclaim accounting. *)
let iter t f =
  let seen = Hashtbl.create 16 in
  let rec go n b addr =
    if addr = 0 then (n, b)
    else begin
      if Hashtbl.mem seen addr then
        failwith (Printf.sprintf "Deferred_list(%s): cycle through %#x" t.head.Platform.atomic_name addr);
      Hashtbl.replace seen addr ();
      match locked t (fun () -> Hashtbl.find_opt t.links addr) with
      | None ->
        failwith (Printf.sprintf "Deferred_list(%s): node %#x without payload" t.head.Platform.atomic_name addr)
      | Some node ->
        f node.dn_sb addr;
        go (n + 1) (b + Superblock.block_size node.dn_sb) node.dn_next
    end
  in
  let n, b = go 0 0 (t.head.Platform.peek ()) in
  if n <> length t then
    failwith
      (Printf.sprintf "Deferred_list(%s): %d nodes on the list but %d accounted" t.head.Platform.atomic_name
         n (length t));
  if b <> bytes t then
    failwith
      (Printf.sprintf "Deferred_list(%s): %d bytes on the list but %d accounted" t.head.Platform.atomic_name
         b (bytes t))

(* Every listed block is bitmap-live and custody-marked in its
   superblock: it stays charged to the owning heap until a reclaim. *)
let check t = iter t (Superblock.check_in_custody ~what:"deferred")
