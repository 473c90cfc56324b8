(** The lock-free global heap: a CAS-published fullness index over the
    superblocks heap 0 holds, replacing its Dlist fullness groups so that
    superblock transfer — heap to global, global to heap — and frees
    into global superblocks never acquire the heap-0 lock.

    Each member superblock owns one slot (id cached in
    [Superblock.gslot], assigned once, stable for its lifetime) whose
    atomic word — Absent / Idle(bin) / Busy(bin) — is the ground truth
    of membership. Findability comes from ABA-tagged Treiber stacks of
    entry nodes, one per (size class, fullness bin) plus one
    class-agnostic empties stack, maintained lazily: entries can be
    stale, pops discard or relocate them against the word, and the
    invariant is only that every quiescent Idle(b) member is reachable
    in stack b. Claims are a single CAS Idle -> Absent; frees run one
    Busy handshake per run of blocks. Every retry loop is bounded by
    other threads' progress, keeping the protocol explorable by
    lib/check.

    Concurrency contract: {!publish}, {!acquire}, {!take_empty} and
    {!free_run} are lock-free and callable from any thread;
    {!publish} additionally requires the superblock to be private to
    the caller (unlinked from any heap core, owner already 0).
    {!iter_members} and {!check} are quiescent-only peek walks. The
    [?record] callbacks fire event-ring records ({!Event_ring.Global_push}
    / [Global_pop] / [Global_revalidate]) and must respect the ring's
    own lock-domain discipline — pass one only while holding the
    calling heap's lock, or omit it. *)

type t

val create :
  Platform.t ->
  name:string ->
  nclasses:int ->
  ngroups:int ->
  ?aba_tag:bool ->
  ?skip_revalidate:bool ->
  ?on_retry:(unit -> unit) ->
  unit ->
  t
(** [aba_tag:false] freezes the stack tags (the "global-no-aba" mutant);
    [skip_revalidate:true] turns the claim CAS into a blind store (the
    "global-skip-revalidate" mutant); [on_retry] fires on every failed
    CAS (wire it to [Alloc_stats.retry_hook ~label:"global"]). *)

val publish : ?record:(Event_ring.kind -> arg:int -> unit) -> t -> Superblock.t -> unit
(** Make a privately-held superblock a member: word to Idle(bin), one
    entry pushed to its (class, bin) stack. Works for any fullness,
    including full and empty. *)

val acquire : ?record:(Event_ring.kind -> arg:int -> unit) -> t -> sclass:int -> Superblock.t option
(** Claim the fullest allocatable member of [sclass] — partial bins
    scanned fullest-first, then the empties (which the caller may need
    to {!Superblock.reinit} to [sclass]). [None] when nothing is
    claimable, or when a Busy member paused a stack's scan (a transient
    miss: scanning past it could livelock against a descheduled
    reclaimer). The returned superblock is private to the caller. *)

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
    one entry pushed when the run moved the superblock to another bin.
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

val pushes : t -> int

val pops : t -> int

val revalidates : t -> int

val retries : t -> int

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
    one head (unreachable nodes are the lost-ABA strand), no Busy
    words, recorded bins match recomputed fullness, every member
    reachable in its own bin's stack, gauges equal recomputed sums,
    and [Superblock.check] on every member. Raises [Failure] with a
    diagnostic otherwise. *)
