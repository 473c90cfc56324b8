(** Reuse policies for the simulated address space.

    {!Vmem} is an accounting shell over one of these backends: the
    backend owns the free portion of the bump-allocated range and
    decides how unmapped regions are recycled. All backends share the
    same byte-exact contract, so the shell's conservation invariant
    (backend free bytes + live region bytes = bump frontier - base)
    holds under any policy:

    - [take ~bytes ~align] returns an [align]-aligned base of a free
      range of exactly [bytes] bytes and debits [bytes], or [None];
    - [give ~addr ~bytes] donates the range (a freed region, or an
      alignment gap the shell skipped while bumping) and credits
      [bytes].

    [bytes] is always a positive multiple of the page size and [align]
    a power of two at least the page size; addresses are page-aligned. *)

type kind =
  | Exact  (** seed policy: exact-size free lists, no splitting or coalescing *)
  | First_fit  (** address-ordered free list, coalesced on free, carved on allocate *)
  | Buddy  (** binary buddy system: power-of-two chunks, buddy merging *)

val kind_name : kind -> string
(** ["exact"], ["first-fit"], ["buddy"] — the names the CLI accepts. *)

val kind_of_string : string -> kind option

val all_kinds : kind list

type t = {
  be_kind : kind;
  take : bytes:int -> align:int -> int option;
  give : addr:int -> bytes:int -> unit;
  free_bytes : unit -> int;  (** bytes currently in the pool *)
  check : unit -> unit;
      (** deep structural validation (alignment, coalescing/merge
          invariants, pool-total agreement); raises [Failure] *)
}

val create : kind -> t
