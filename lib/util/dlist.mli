(** Intrusive doubly-linked lists with O(1) removal by node handle.

    Superblocks migrate constantly between fullness groups; each group is a
    [Dlist.t] and each superblock keeps the [node] of its current group so
    that moving it costs O(1), as in the paper's implementation. *)

type 'a t
(** A list of values of type ['a]. *)

type 'a node
(** A handle to one element inside some list. *)

val create : unit -> 'a t

val length : 'a t -> int
(** O(1). *)

val push_front : 'a t -> 'a -> 'a node

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n] from [t]. Raises [Invalid_argument] if [n] is
    not currently linked in [t]. *)

val peek_front : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back iteration. *)

val find : ('a -> bool) -> 'a t -> 'a option
(** First element (front-to-back) satisfying the predicate. *)
