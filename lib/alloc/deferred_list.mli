(** Intrusive deferred free list (MPSC): producers push
    remotely-freed blocks with one CAS on the list head (wait-free when
    uncontended, never locking the owner), unbounded unless a push
    passes a cap; the owning heap detaches the whole list with a single
    exchange and walks it privately. The push-only/take-all discipline
    makes the structure ABA-immune without generation tags — see the
    implementation header for the argument.

    The head word and per-block link loads/stores run on the simulated
    machine (costed, schedule-visible); link values live in host state
    behind a host mutex, touched only while the block is private. *)

type t

val create : Platform.t -> name:string -> ?lost_node:bool -> ?on_retry:(unit -> unit) -> unit -> t
(** [lost_node] plants the ["deferred-lost-node"] mutant: a failed push
    CAS is treated as success, silently dropping the block — only
    observable under producer contention. [on_retry] runs after every
    failed CAS (explorer instrumentation). *)

val push_many : ?cap:int -> t -> (Superblock.t * int * int) list -> bool
(** Publish a whole batch of blocks, each [(sb, addr, link)] a block
    [addr] of [sb] private to the caller (freed, custody-marked) at a
    nonzero address, whose first word already holds [link] (0 when no
    block address is known to be there), with a single CAS: the blocks
    are linked into a private chain and the head is swung once, so an
    eviction batch costs one head-line transfer regardless of size.
    The chain costs one link store, on the block's own line, per block
    whose word does not already hold the next block of the batch, plus
    the tail's, which depends on the head and is always stored: a batch
    whose blocks already point at each other costs one store. Returns
    [true] once published.

    With [cap], returns [false] and publishes nothing when the batch
    would take the list past [cap] blocks, judged by the length that
    goes with a head the push loaded; the blocks stay the caller's. A
    capped push loads the head once before it writes any link, so a
    batch that cannot fit costs that one load and nothing else. Without
    [cap] the list is unbounded. *)

val reclaim : t -> (Superblock.t * int) list
(** Detach the entire list with one exchange and return its blocks,
    most-recently-pushed first. Empty list when there is nothing. *)

val linked : (Superblock.t * int) list -> (Superblock.t * int * int) list
(** A detached chain, as {!reclaim} returns it, with the link each block
    holds: the address of the block after it, 0 for the last. *)

val drain_quiescent : t -> (Superblock.t * int) list
(** Same as {!reclaim} but charge-free and schedule-invisible, for
    post-run teardown only (uses [peek]/[poke]). *)

val length : t -> int
(** Blocks currently on the list (host accounting, quiescent-exact). *)

val bytes : t -> int
(** The block sizes of the blocks on the list, summed: a total kept
    beside {!length} under the same convention, a count held in the head
    node, so reading it right after a push costs nothing beyond the
    push's own CAS. *)

val iter : t -> (Superblock.t -> int -> unit) -> unit
(** Quiescent structural walk without consuming the list; fails on
    cycles, payload-less nodes, or a length or byte total drifting
    from the accounting. Call only when no thread is mid-operation. *)

val check : t -> unit
(** {!iter}'s structural walk, plus every listed block bitmap-live and
    custody-marked in its superblock. Quiescent; raises [Failure]. *)
