(** Canned scenarios for {!Explorer}.

    The counter pair ([lost_update] / [locked_update]) self-tests the
    explorer: the first fails at preemption bound 1, the second passes at
    every bound. The hoard scenarios drive the real allocator on a small
    one-heap configuration; with a planted mutant
    ({!Hoard_config.known_mutants}) they reproduce the concurrency bug
    the mutant hides, which the explorer must find and minimize while
    the unmutated variant passes exhaustively. *)

val lost_update : Explorer.scenario
val locked_update : Explorer.scenario

val transfer_free_race : mutant:string -> Explorer.scenario
(** A free racing the owning heap's superblock transfer to the global
    heap (the paper's free protocol). [mutant = "skip-owner-recheck"]
    drops the post-acquire ownership re-check and fails at preemption
    bound 1; [mutant = ""] is the real allocator and passes. *)

val emptiness_trim : mutant:string -> Explorer.scenario
(** Single-threaded invariant check: frees drive a heap across the
    emptiness threshold; the post-run check demands the invariant.
    [mutant = "emptiness-off-by-one"] fails already at bound 0. *)

val registry_churn : Explorer.scenario
(** Superblock register/unregister churn (release-to-OS at threshold 0)
    against the registry's wait-free lookup on concurrent free paths. *)

val lockfree_stack : mutant:string -> Explorer.scenario
(** The bounded Treiber stack under the large cache, driven raw:
    concurrent pops (one pushing back) against a small stack, with a
    conservation walk as the post-run oracle.
    [mutant = "large-cache-no-aba"] freezes the ABA tag and is caught at
    preemption bound <= 2; [mutant = ""] passes exhaustively. *)

val deferred_remote_free : mutant:string -> Explorer.scenario
(** Two remote flushes racing CAS pushes onto one heap's deferred free
    list while the owner detaches and splices it, end to end through
    the allocator; one flush surrenders two blocks of one superblock in
    one chain. The post-run oracle counts pending plus
    drained blocks. [mutant = "deferred-lost-node"] treats a failed push
    CAS as success and leaks a block at preemption bound <= 2;
    [mutant = ""] passes exhaustively. *)

val deferred_own_overflow : Explorer.scenario
(** The own-heap cap on a deferred list ([remote_queue_cap = 1]): a
    thread's second eviction onto its own heap's list finds it full,
    bails from the push and takes the locked [dispose_batch], racing
    another thread on the same heap whose fill detaches the list before
    its heap lock and splices it under the lock. Oracle: the own list
    within its cap, {!Hoard.check} around a quiescent flush, live-byte
    conservation. Passes exhaustively. *)

val remote_queue_drain : Explorer.scenario
(** The queue-mode twin of {!deferred_remote_free}: two remote flushes
    pushing onto one heap's bounded remote-free queue race the owner's
    swap of the queue before its heap lock. Same oracle (pending plus
    drained blocks); passes exhaustively. *)

val large_cache_churn : mutant:string -> Explorer.scenario
(** The large-object cache's park/take protocol driven raw on one
    bucket: three takers racing a park, with a conservation walk plus
    {!Large_cache.check}'s residency validation as the post-run oracle.
    [mutant = "large-cache-no-aba"] freezes the bucket's ABA tag and is
    caught at bound <= 2; [mutant = ""] passes exhaustively. Explore
    under {!Explorer.Chess}: the oracle reads vmem page residency, which
    step footprints do not see, so sleep-set pruning is unsound for
    this scenario. *)

val exit_adoption : ?global:Hoard_config.global_mode -> mutant:string -> unit -> Explorer.scenario
(** A remote free and a refill racing a retiring thread's
    orphaned-superblock adoption, on the locked global heap
    (["exit-adoption"]) or, with [~global:Lockfree], the lock-free one
    (["exit-adoption-lockfree"]). The post-run oracle demands exactly
    one adoption, intact survivor blocks and {!Hoard.check}'s live-byte
    conservation. [mutant = "orphan-lost-superblock"] never hands the
    adopted superblock to the global heap and fails at bound 0;
    [mutant = ""] passes exhaustively. *)

val global_transfer : Explorer.scenario
(** The lock-free global heap end to end ([Hoard_config.global] =
    [Lockfree]): a trim's index publish racing a refill's claim CAS
    racing a deferred free's Busy-handshake reclaim, with
    {!Hoard.check}'s index walk and live-byte conservation as the
    post-run oracle. Passes exhaustively at preemption bound 2. *)

val global_index_churn : mutant:string -> Explorer.scenario
(** {!Global_index}'s ABA-tagged entry stacks driven raw: three racing
    [take_empty] claims against concurrent publishes, with the index's
    exhaustive walk plus a conservation count as the post-run oracle.
    [mutant = "global-no-aba"] freezes the stack tags (the flag
    {!Hoard.create} wires from [Hoard_config.mutant]) and a stale splice
    is caught at bound <= 2; [mutant = ""] passes exhaustively. *)

val global_index_free : mutant:string -> Explorer.scenario
(** {!Global_index.free_run}'s Busy handshake — two two-block runs, their
    link and header writes inside the Busy window — racing an
    [acquire]'s claim CAS on one partial member, driven raw.
    [mutant = "global-skip-revalidate"] claims with a blind store that
    stomps a concurrent Busy word — caught at bound <= 2;
    [mutant = ""] passes exhaustively. *)

val global_free_shards : Explorer.scenario
(** The lock-free global heap's per-heap global-free shards through the
    real allocator: two heaps free blocks of one global superblock onto
    their own shards and flush concurrently while a third thread's
    refill claims the superblock. [Hoard.check] is the oracle. *)

val all : unit -> Explorer.scenario list

val find : string -> Explorer.scenario option
(** Lookup by [sc_name] (mutant variants are suffixed ["-mutant"]). *)

val help : unit -> string
(** One line per scenario for [--scenario help]. *)
