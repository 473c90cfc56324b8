(** Bounded lock-free Treiber stack over {!Platform} atomics.

    The non-blocking substrate of the large-object cache's buckets: [push]/[pop]
    complete with CAS only — no lock, so they are safe at any
    interleaving and explorable by [Check.Explorer] (link words are platform atomics on distinct cache
    lines, every operation a schedule-visible step).

    A pool of [cap] slots threads through two Treiber stacks (live and
    free), bounding the population without a shared counter. Head words
    carry an ABA tag incremented by every successful CAS, so a pop whose
    top slot was recycled mid-window fails its CAS instead of installing
    a stale link. *)

type 'a t

val create :
  Platform.t -> name:string -> cap:int -> ?aba_tag:bool -> ?on_retry:(unit -> unit) -> unit -> 'a t
(** [name] prefixes the atomics' names ("<name>.head", "<name>.free",
    "<name>.next<i>") as seen by the schedule explorer. [aba_tag]
    (default true) must only be disabled by tests: [false] freezes the
    ABA tag at zero, planting the classic Treiber pop bug for the
    explorer to catch. [on_retry] fires on every failed CAS (retry), for
    the caller's contention counters; it runs on the operating thread
    and must be cheap and lock-free itself. A [cap] of 0 is legal: the
    stack is permanently empty and full. *)

val push : 'a t -> 'a -> bool
(** [false]: the pool is exhausted (stack full). The payload write is
    host state on a privately-owned slot; the publishing CAS is the
    linearization point. *)

val pop : 'a t -> 'a option
(** Most recently pushed first. *)

val length : 'a t -> int
(** Lock-free host read; exact at quiescence. *)

val pushes : 'a t -> int
(** Successful pushes ever. *)

val pops : 'a t -> int
(** Successful pops ever. *)

val retries : 'a t -> int
(** Failed CAS attempts ever (contention indicator). *)

val iter : 'a t -> ('a -> unit) -> unit
(** Quiescent-only walk, top first, via charge-free peeks (callable from
    outside any simulated thread). Raises [Failure] if any operation is
    still in flight, or if the walk finds structural corruption — a
    cycle, a twice-linked slot or a payload-less live slot (the
    signatures of a lost ABA tag). *)
