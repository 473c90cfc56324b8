(** ABA-tagged Treiber stacks sharing one node pool, over {!Platform}
    atomics.

    The non-blocking substrate of both lock-free extensions: the large
    cache's buckets (one bounded pool and one stack per bucket) and the
    lock-free global heap's entry stacks (one growing pool under the
    empties stack and the partial stack of each class of a
    {!Global_index}, the latter added by {!add_stacks} as classes come
    into use).
    [push]/[pop] complete with CAS only — no lock, so they are safe at
    any interleaving and explorable by [Check.Explorer] (link words are
    platform atomics on distinct cache lines, every operation a
    schedule-visible step).

    A push takes a node off a free list and links it on its stack; a pop
    unlinks the top node and returns it to a free list. A bounded pool
    has one free list. A growing pool has a shared one plus one per
    processor ([Platform.self_proc]), each built on its processor's first
    use and capped at {!own_cap} nodes: a pop returns its node to the
    caller's list, or to the shared one once the caller's is full, and a
    push takes from the caller's list, then the shared one, then a fresh
    id, so a processor whose pushes and pops balance never touches the
    shared word. Head words carry an ABA tag incremented by every
    successful CAS, so a pop whose top node was recycled mid-window fails
    its CAS instead of installing a stale link; a per-processor list's
    head also carries its length, so testing the cap costs only the head
    load. *)

type 'a pool

type 'a t
(** One stack; its nodes come from its pool. *)

val pool : Platform.t -> name:string -> ?aba_tag:bool -> ?on_retry:(unit -> unit) -> unit -> 'a pool
(** A growing pool, with no stack until {!add_stacks} adds some: its
    node table starts empty and grows under a host mutex whenever the
    caller's and the shared free lists are empty, so a push never
    refuses, and it stays within the live entries plus {!own_cap} nodes
    per processor plus one per thread in the middle of a push or pop.
    Atomics, in creation order: the
    shared list "<name>.free", then, as the run reaches them, "<name>.n<i>"
    as nodes are first handed out, "<name>.free.p<proc>" at a processor's
    first push or pop, and the heads {!add_stacks} makes. [aba_tag] (default
    true) must only be disabled by tests: [false] freezes every head's
    tag at zero, planting the classic Treiber pop bug for the explorer
    to catch. [on_retry] fires on every failed CAS, for the caller's
    contention counters; it runs on the operating thread and must be
    cheap and lock-free itself. *)

val add_stacks : 'a pool -> string array -> 'a t array
(** [add_stacks p suffixes] appends one stack per suffix to [p] and
    returns them, in order: each head is a fresh atomic
    "<name>.<suffix>", created when the call runs, so its line follows
    every simulated object created before it. Safe from any thread (the
    append runs under the pool's host mutex and republishes the stack
    table through a host atomic) and at no simulated cost; {!walk}
    covers the new stacks. *)

val create :
  Platform.t -> name:string -> cap:int -> ?aba_tag:bool -> ?on_retry:(unit -> unit) -> unit -> 'a t
(** A stack alone in a bounded pool of [cap >= 1] nodes. Atomics, in
    creation order: "<name>.next<i>" for each node, "<name>.free",
    "<name>.head". [aba_tag] and [on_retry] as for {!pool}. *)

val own_cap : int
(** The most nodes a per-processor free list holds: 8. *)

val push : 'a t -> 'a -> bool
(** [false]: a bounded pool is exhausted (stack full); the stack is left
    untouched. The payload write is host state on a privately-owned
    node; the publishing CAS is the linearization point. *)

val pop : 'a t -> 'a option
(** Most recently pushed first. *)

(** {2 Quiescent mutation — peek/poke, no simulated cost} *)

val q_push : 'a t -> 'a -> bool
(** {!push} with no schedule visibility, for teardown after every worker
    has joined. It runs outside any simulated thread, so it takes its
    node from the shared free list only. *)

(** {2 Introspection} *)

val name : 'a t -> string
(** The head atomic's name. *)

val length : 'a t -> int
(** Lock-free host read; exact at quiescence. *)

val pushes : 'a t -> int
(** Successful pushes ever. *)

val walk : 'a pool -> ('a t -> 'a -> unit) -> unit
(** Quiescent-only walk of the shared free list, the per-processor lists
    built so far and then every stack in creation order, top first, via
    charge-free peeks (callable from outside any simulated thread),
    calling [f] on each live payload.
    One seen-set spans all of them, so it raises [Failure] on a node
    reachable twice (within one stack: a cycle), a node beyond the
    table, a live node without a payload, a node handed out but
    reachable from no head (the strand a lost ABA tag leaves), a
    per-processor list over {!own_cap} or unequal to its head's count,
    or an operation still in flight. *)

val nodes : 'a pool -> int
(** Node ids handed out so far: the used length of the table. *)

val live : 'a pool -> int
(** Payloads on the pool's stacks; host counters, exact at quiescence. *)

val iter : 'a t -> ('a -> unit) -> unit
(** {!walk} of the stack's pool, calling [f] on this stack's payloads
    only — the whole pool is validated. *)
