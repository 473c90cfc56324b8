(** The lock-free global heap: a CAS-published fullness index over the
    superblocks heap 0 holds, replacing its Dlist fullness groups so that
    superblock transfer — heap to global, global to heap — and frees
    into global superblocks never acquire the heap-0 lock.

    Each member superblock owns one slot (id cached in
    [Superblock.gslot], assigned once, stable for its lifetime) whose
    atomic word — Absent / Idle(bin) / Busy(bin), with three bins:
    partial, full, empty — is the ground truth of membership.
    Findability comes from ABA-tagged Treiber stacks of entry nodes, one
    partial stack per size class plus one class-agnostic empties stack,
    sharing one growing {!Lockfree} pool whose per-processor free lists
    recycle the nodes. A full member has no entry: no acquire can use it,
    and the free that takes it out of full pushes one. The heaps keep their
    fullness groups; the index needs none, since it hands out whole
    superblocks and the heap that takes one allocates from its own
    groups fullest-first. {!create} builds only the empties
    stack; a class's stack is built on its first use (an {!acquire} for
    the class, or an entry pushed for one of its partial members), at no
    simulated cost. The stacks are maintained lazily: entries can be
    stale, a pop drops any entry it cannot claim (repushing only one
    whose member a reclaimer holds Busy), and the invariant is only that
    every quiescent Idle(b) member that is not full is reachable in its
    (class, b) stack. Claims are a single CAS Idle -> Absent; frees run one
    Busy handshake per run of blocks. Every retry loop is bounded by
    other threads' progress, keeping the protocol explorable by
    lib/check.

    Concurrency contract: {!publish}, {!acquire}, {!take_empty} and
    {!free_run} are lock-free and callable from any thread;
    {!publish} additionally requires the superblock to be private to
    the caller (unlinked from any heap core, owner already 0).
    {!iter_members} and {!check} are quiescent-only peek walks. The
    [?record] callbacks report {!Event_ring.Global_push} (once per
    publish), [Global_pop] (once per claim) and [Global_revalidate]
    (once per entry repushed after meeting a Busy member), and
    {!acquire} reports [Global_busy_miss]; the allocator passes one
    that notes them on the calling heap's
    stats shard ({!Alloc_stats.note}), so it must hold that heap's lock,
    or omit the callback. *)

type t

val create :
  Platform.t ->
  name:string ->
  nclasses:int ->
  ?aba_tag:bool ->
  ?skip_revalidate:bool ->
  ?on_retry:(unit -> unit) ->
  unit ->
  t
(** [aba_tag:false] freezes the stack tags (the "global-no-aba" mutant);
    [skip_revalidate:true] turns the claim CAS into a blind store (the
    "global-skip-revalidate" mutant); [on_retry] fires on every failed
    CAS (wire it to [Alloc_stats.retry_hook ~label:"global"]). Makes
    two atomics, "<name>.free" and "<name>.empties"; the rest are made
    as the run reaches them: slot words "<name>.w<id>", pool nodes
    "<name>.n<i>", a processor's free list "<name>.free.p<proc>", and a
    class's partial head "<name>.c<class>b0" on the class's first use. *)

val publish : ?record:(Event_ring.kind -> arg:int -> unit) -> t -> Superblock.t -> unit
(** Make a privately-held superblock a member: word to Idle(bin), one
    entry pushed to its class's partial stack or to the empties. Works
    for any fullness; a full member gets its word and no entry. *)

val acquire : ?record:(Event_ring.kind -> arg:int -> unit) -> t -> sclass:int -> Superblock.t option
(** Claim an allocatable member of [sclass] — the most recently
    published or re-binned partial one, else an empty (which the caller
    may need to {!Superblock.reinit} to [sclass]). A Busy member ends a
    stack's scan (scanning past it could livelock against a descheduled
    reclaimer), so it hides the members below it: a transient miss. An
    acquire that met one, in either scan, reports one [Global_busy_miss].
    [None] when nothing claimable was found. The returned superblock is
    private to the caller. *)

val take_empty : ?record:(Event_ring.kind -> arg:int -> unit) -> t -> Superblock.t option
(** Claim one empty member (any class) — the release-to-OS path. *)

type free_result =
  | Freed of { now_empty : bool }  (** block returned; bin updated and republished *)
  | Requeue  (** another reclaimer holds the superblock Busy: retry later *)
  | Not_member of { owner : int }
      (** the superblock was claimed away; route the block to [owner]
          ([0] = still in transit to some heap: requeue) *)

val free_run : ?inside:(unit -> unit) -> t -> Superblock.t -> addrs:int list -> free_result
(** Free a run of distinct blocks of one member superblock with a single
    Busy handshake: one CAS Idle(b) -> Busy(b), every block freed (its
    custody mark cleared), [inside] run, one store Idle(b'), and at most
    one entry pushed, to the partial or empties stack, when the run moved
    the superblock out of its bin.
    [inside] is where the caller issues the run's simulated writes (free-
    list links, the header): they land while the word is Busy, so no
    claimer can own the superblock underneath them. On {!Requeue} and
    {!Not_member} no block is touched and [inside] does not run. Stats
    and events around the free are the caller's. *)

(** {2 Gauges — host atomics, exact at quiescence} *)

val members : t -> int

val empties : t -> int

val u_bytes : t -> int
(** Usable live bytes inside member superblocks. *)

val nodes : t -> int
(** Entry nodes handed out: the used length of the pool's table. *)

val entries : t -> int
(** Entries on the stacks, stale ones included. *)

(** {2 Quiescent mutation — peek/poke, no simulated cost}

    Teardown-time counterparts of {!publish} and {!free_run} for
    [Hoard.flush_caches]: only call when every worker has joined. *)

val q_publish : t -> Superblock.t -> unit
(** {!publish} without schedule visibility or event recording. *)

val q_free : t -> Superblock.t -> addr:int -> unit
(** Free one block into a member with no Busy handshake (nothing is
    concurrent). Raises [Failure] if the superblock is not a quiescent
    Idle member. *)

(** {2 Quiescent introspection — peek-only, no simulated cost} *)

val iter_members : t -> (Superblock.t -> unit) -> unit
(** Every current member, in slot order. Raises [Failure] on a Busy
    word (a reclaimer died mid-protocol). *)

val check : t -> unit
(** Exhaustive structural validation: every node reachable from exactly
    one head (unreachable nodes are the lost-ABA strand), every
    per-processor free list within its cap, no Busy
    words, recorded bins match recomputed fullness, every member that is
    not full reachable in its (class, bin) stack, gauges equal recomputed sums,
    and [Superblock.check] on every member. Walks only the stacks built
    so far and builds none. Raises [Failure] with a diagnostic
    otherwise. *)
