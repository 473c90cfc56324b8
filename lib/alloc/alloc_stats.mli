(** Accounting shared by every allocator implementation, sharded so that
    concurrent heaps never contend on (or race over) a common counter.

    Tracks the two quantities the paper's fragmentation and blowup
    definitions are built from:
    - [live]: bytes currently allocated to the program (in usable-size
      terms), with its high-water mark ["U"];
    - [held]: bytes currently held from the OS, with its high-water mark
      ["A"].

    Fragmentation (paper Table 4) is [A_peak / U_peak].

    Concurrency contract: a {!t} is split into [shards], one per lock
    domain of the allocator (per heap, per size class, one for the large
    path). The per-operation counters ({!on_malloc}, {!on_free}, {!note}
    and the front-end events) must only be called while holding the
    lock of the shard's domain — they are plain mutable updates with no
    internal synchronisation. The OS-map path ({!on_map}, {!on_unmap}) and
    {!snapshot} are atomic/lock-free and may be called from any domain.

    Peak semantics: [held]/[peak_held] are maintained atomically on every
    map/unmap, so A_peak is exact. [peak_live] for a single-shard [t] is
    exact; for a sharded [t] it is the high-water mark of the summed live
    bytes, sampled whenever a shard climbs past its own local peak and at
    every map, unmap and snapshot. The sample sums peer shards without
    taking their locks, so it is a close lower bound on the true global
    peak rather than an exact figure — the price of keeping malloc/free
    free of cross-heap synchronisation. *)

type t

type shard
(** A slice of a {!t} owned by one lock domain. *)

type snapshot = {
  mallocs : int;
  frees : int;
  bytes_requested : int;  (** sum of requested sizes over all mallocs *)
  live_bytes : int;  (** usable bytes currently allocated to the program *)
  peak_live_bytes : int;
  held_bytes : int;  (** bytes currently held from the OS *)
  peak_held_bytes : int;
  os_maps : int;
  os_unmaps : int;
  resident_bytes : int;
      (** held-from-OS bytes whose pages are committed (the simulated
          RSS): mapped regions minus decommitted ones, so
          [resident_bytes <= held_bytes]. *)
  peak_resident_bytes : int;
  decommits : int;  (** regions decommitted (madvise-style page drops) *)
  recommits : int;  (** decommitted regions re-populated for reuse *)
  sb_to_global : int;  (** superblock transfers heap -> global *)
  sb_from_global : int;  (** superblock transfers global -> heap *)
  remote_frees : int;  (** frees whose block belongs to another heap *)
  cache_hits : int;  (** mallocs served by a front-end cache, no lock taken *)
  cache_fills : int;  (** blocks moved heap -> front-end cache *)
  cache_flushes : int;  (** blocks flushed out of front-end caches by running threads *)
  remote_enqueues : int;  (** blocks pushed onto remote-free queues *)
  remote_drains : int;
      (** blocks returned to a heap core after waiting in a cache, a
          channel or a global-free shard: every {!on_drain} *)
  remote_forwards : int;
      (** migrated blocks re-forwarded by a drain to the new owner's queue *)
  large_maps : int;  (** large allocations that paid an OS map *)
  large_cache_hits : int;  (** large allocations served by the MPSC cache (take -> commit) *)
  deferred_enqueues : int;  (** blocks CAS-pushed onto deferred free lists *)
  deferred_reclaims : int;
      (** owner-side deferred-list exchanges that returned blocks;
          [deferred_enqueues / deferred_reclaims] is the batching factor *)
  orphan_adoptions : int;
      (** superblocks adopted (reassigned or trimmed to the global heap)
          from exiting threads' heaps by {!Hoard.on_thread_exit} *)
  cas_retries : int;  (** failed CASes in lock-free structures (contention) *)
  cas_retries_by : (string * int) list;
      (** per-structure breakdown of [cas_retries] by hook label (e.g.
          ["deferred"], ["large-cache"], ["global"]), in hook-registration
          order; the labels sum to [cas_retries] at quiescent points *)
  global_pushes : int;
      (** superblocks published to the lock-free global index, counted
          under the publishing heap's lock *)
  global_pops : int;  (** superblocks claimed from it, under the claiming heap's lock *)
  global_busy_misses : int;
      (** claims that met a Busy entry and fell through to the empties or
          the OS, under the claiming heap's lock *)
}

val create : ?shards:int -> unit -> t
(** [shards] defaults to 1 (the single-lock-domain case, exact peaks). *)

val nshards : t -> int

val shard : t -> int -> shard

val add_shard : t -> shard
(** Appends a shard for a lock domain created after construction (a
    thread's front-end cache). Thread-safe; existing shards keep working
    throughout. The new shard follows the same contract as the others:
    its events must be serialised by its own domain. *)

(** {2 Per-operation events — call under the shard's lock} *)

val on_malloc : shard -> requested:int -> usable:int -> unit

val on_free : shard -> usable:int -> unit

(** {2 Counted events and the shard's ring}

    A shard counts every {!Event_ring.kind} noted on it, and the snapshot
    fields [sb_to_global], [sb_from_global], [remote_frees],
    [cache_hits], [cache_flushes], [remote_enqueues], [remote_forwards],
    [large_maps], [large_cache_hits], [deferred_enqueues],
    [deferred_reclaims], [orphan_adoptions], [global_pushes],
    [global_pops] and [global_busy_misses] are the sums of their kinds over all shards. With a
    ring attached, the same call records the event into the domain's
    ring, so the ring's per-kind totals and the counts agree by
    construction. *)

val attach_ring : shard -> Event_ring.t -> Platform.t -> heap:(unit -> int) -> unit
(** Record the shard's events into [ring], stamped with the platform's
    clock and processor and with [heap ()] (the domain's heap id, [-1]
    when not heap-scoped). The ring joins the shard's lock domain. *)

val ring : shard -> Event_ring.t option

val note : ?n:int -> ?trace:bool -> shard -> Event_ring.kind -> sclass:int -> arg:int -> unit
(** [note sh kind ~sclass ~arg] adds [n] (default 1) to the shard's count
    of [kind] and, when a ring is attached, records one event with
    [sclass] and [arg]. Call under the shard's lock. [~trace:false]
    counts without recording: quiescent callers, outside any simulated
    thread, where reading the clock is not allowed. An untraced shard
    performs no platform effect. *)

val record : shard -> Event_ring.kind -> sclass:int -> arg:int -> unit
(** Record one event into the attached ring, if any, without counting:
    for events whose totals live in the atomics of {!t} ([decommits],
    [os_unmaps]). Call under the ring's lock. *)

(** {2 Front-end events — call under the shard's domain discipline}

    A block sitting in a front-end cache or a remote-free queue stays
    charged to the heap that owns its superblock, so [live_bytes] (and
    with it every allocator's [check]) reconciles exactly against the
    heap cores at any quiescent point: fills add the moved bytes
    ({!on_cache_fill}, under the source heap's lock), drains subtract
    them ({!on_drain}, under the destination heap's lock), and the
    cache-hit malloc / cached free in between touch only the operation
    counters. *)

val on_cache_hit : shard -> requested:int -> unit
(** A malloc served from the thread's cache: counts the malloc and the
    requested bytes; live bytes are unchanged (charged since the fill).
    The hit itself is a noted [Cache_hit]. *)

val on_cached_free : shard -> unit
(** A free absorbed by the thread's cache: counts the free; live bytes
    are unchanged (the block stays charged until drained). *)

val on_cache_fill : shard -> blocks:int -> bytes:int -> unit
(** Blocks moved from a heap core into a cache, under that heap's lock. *)

val on_drain : shard -> usable:int -> unit
(** One block returned to a heap core under that heap's lock, on every
    path: a queue drain, a deferred or global-free reclaim, the locked
    disposal of a batch, or the quiescent flush. Live bytes drop by
    [usable]; the free itself was already counted by {!on_cached_free}. *)

val retry_hook : t -> label:string -> unit -> unit
(** [retry_hook t ~label] returns the retry callback for one lock-free
    structure: each call counts into both the unified [cas_retries] total
    and the [label]'s own slot of [cas_retries_by] (created on first use).
    Obtain hooks at allocator construction — {!publish} registers one
    [<prefix>.cas_retries.<label>] gauge per label known at publish time.
    Atomic — callable with no lock held, from any domain. *)

(** {2 OS-map events — atomic, callable from any domain} *)

val on_map : t -> bytes:int -> unit
(** A fresh OS map: bytes become held and resident. *)

val on_unmap : ?resident:bool -> t -> bytes:int -> unit
(** A region returned to the OS. [resident] (default true) says whether
    its pages were still committed — pass [false] when unmapping an
    already-decommitted region so resident accounting is not
    double-debited. *)

(** {2 Residency events — atomic, callable from any domain}

    A decommit takes committed pages out of the resident set while the
    region stays mapped (and held); a recommit puts them back. *)

val on_decommit : t -> bytes:int -> unit

val on_recommit : t -> bytes:int -> unit

(** {2 Reading} *)

val snapshot : t -> snapshot
(** Merges all shards. Lock-free; counts are exact whenever every shard's
    domain is quiescent (e.g. at barriers or after joining workers). *)

val fragmentation : snapshot -> float
(** [peak_held / peak_live]; [nan] before any allocation. *)

val publish : t -> Metrics.t -> unit
(** Registers one gauge per snapshot field (plus [alloc.fragmentation])
    under names [alloc.<field>]. Each
    gauge takes a fresh {!snapshot} when read, so exporting the registry
    at quiescence yields exact figures. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
