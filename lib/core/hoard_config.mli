(** Tunables of the Hoard algorithm, with the paper's defaults.

    Code builds a configuration as a record update of {!default}
    ([{ Hoard_config.default with slack = 0 }]), which {!Hoard.create}
    validates; text goes through {!set}/{!set_all} (["knob=value"]
    overrides, the engine behind the shared [--set] CLI option). A knob
    registry drives {!set}, {!validate}, {!pp} and the CLI help — adding
    a knob is one registry entry, not an edit to every flag parser.
    Checking tools are not knobs: the heap sanitizer wraps an instance
    from outside ({!Sanitizer}), and a mutant is planted through the
    [mutant] field, never through {!set}. *)

(** Structure of the global heap (heap 0). [Locked]: the classic Dlist
    fullness groups behind the heap-0 lock (the paper's presentation).
    [Lockfree]: the CAS-published fullness index ([Global_index]) — every
    superblock transfer to/from the global heap, every free into a
    global superblock and every surplus release runs without ever
    acquiring the heap-0 lock. With a front end, the mode also picks the
    remote-free channel: bounded queues under [Locked], deferred lists
    under [Lockfree]. *)
type global_mode =
  | Locked
  | Lockfree

val global_mode_name : global_mode -> string

val global_mode_of_string : string -> global_mode option

type t = {
  sb_size : int;
      (** S: superblock size in bytes; power of two (paper: 8 KiB). *)
  empty_fraction : float;
      (** f: a heap may keep at most a fraction f of its superblock bytes
          free before crossing the emptiness threshold (paper: 1/4). *)
  slack : int;
      (** K: number of superblocks' worth of free space a heap may hold
          regardless of f. The paper's analysis uses K = 0; the
          implementation keeps a small positive K (default 4) so that
          batch-free workloads such as threadtest do not thrash
          superblocks through the global heap (see the abl_k ablation). *)
  nheaps : int option;
      (** number of per-processor heaps. [None] (the default) is one per
          processor, and a thread uses its executing processor's heap
          (the paper's presentation). [Some n] makes n heaps and maps
          threads to them by hashing the thread id (the released
          implementation's policy, useful when threads outnumber
          processors). *)
  release_threshold : int;
      (** empty superblocks the global heap retains before returning the
          rest to the OS; [max_int] never releases. *)
  vmem_backend : Vmem_backend.kind;
      (** reuse policy of the simulated address space underneath this
          allocator's platform. The config record is the single source of
          truth for instrumented runs — harnesses construct the platform,
          so they read this field when building the simulator; it cannot
          retroactively change a platform the caller already built.
          Default [Exact] (the seed policy). *)
  front_end : int;
      (** K: the per-thread front-end cache serving malloc/free without
          lock traffic holds [max K (K * 16 / block_size)] blocks of each
          size class — K for every class of 16 B or more, 2K for 8 B
          blocks — and its fills and flushes move half that per lock
          acquisition. 0 (the default) disables the front end entirely,
          restoring the paper's exact hot path; positive values must be
          at least 2 so that every fill and flush moves at least one
          block. *)
  remote_queue_cap : int;
      (** the cap (blocks) of each heap's remote-free channel
          ({!Heap.push}), only meaningful with [front_end > 0]. Under
          [Locked] the channel is a bounded queue of this capacity: an
          eviction finding the owner's queue full falls back to the
          classic lock-the-owner free path (a drain's forwards may fill
          a queue to twice the cap). Under [Lockfree] it is the deferred
          list (a remote free pushes the block onto the owner's list
          with a single CAS, and the owner reclaims the whole list with
          one exchange during its next fill/flush/trim); remote pushes
          are uncapped, but a thread's evictions of its own heap's
          blocks that would take that heap's list past this cap take the
          locked free path instead. *)
  large_cache : int;
      (** per-bucket capacity of the lock-free MPSC large-object cache in
          front of the large allocator: freed large regions are parked
          decommitted (still mapped) in per-page-count buckets and reused
          by take → commit instead of a map round trip; overflow beyond
          the bucket capacity unmaps as before. 0 (the default) disables
          the cache, restoring the seed large path. *)
  global : global_mode;
      (** how the global heap is structured; see {!global_mode}. Default
          [Locked] (the seed structure). *)
  mutant : string;
      (** test hook, not a knob: "" (default) is the real allocator; a
          known mutant name plants a specific concurrency bug for the
          schedule explorer to find (see {!known_mutants}). Set only by
          record update, never by {!set}; {!validate} rejects unknown
          names. *)
}

val known_mutants : string list
(** ["skip-owner-recheck"] drops the ownership re-check after acquiring a
    heap lock in [free], racing against superblock transfer to the global
    heap; ["emptiness-off-by-one"] makes the emptiness-invariant trim use
    K+1 while the invariant checker still demands K;
    ["deferred-lost-node"] makes the deferred-list push treat a failed
    CAS as success (dropping the retry), silently losing the block under
    producer contention; ["large-cache-no-aba"] freezes the ABA tag of
    the large-object cache's bucket stacks, planting the classic Treiber
    pop-over-recycled-head bug; ["global-no-aba"] freezes the
    ABA tags of the lock-free global index's per-bin membership stacks
    (a pop over a concurrently recycled head then splices a stale tail,
    stranding superblocks the index check finds unreachable);
    ["global-skip-revalidate"] makes the index's acquire skip the
    claim-CAS revalidation after popping a membership entry, so a
    concurrent deferred-free reclaimer holding the superblock Busy
    mutates it while the acquiring heap inserts and allocates from it. *)

val default : t

val set : t -> string -> t
(** [set t "knob=value"] parses and applies one textual override, range-
    checking the result. Knob names accept both ['-'] and ['_'] word
    separators. Raises [Invalid_argument] (naming the known knobs) on an
    unknown knob or malformed value. This is the engine behind the
    [--set] option shared by hoard_bench, hoard_trace and hoard_check. *)

val set_all : t -> string list -> t
(** Left fold of {!set}. *)

val knob_names : unit -> string list

val knob_doc : unit -> string
(** One line per knob, ["  name  doc"], for CLI [--set] help text. *)

val validate : t -> unit
(** Raises [Invalid_argument] on out-of-range parameters or an unknown
    [mutant]. Driven by the same per-knob range checks as {!set}. *)

val max_small : t -> int
(** Largest request served from superblocks: S/2, as in the paper. *)

val blowup_envelope :
  ?quarantine:int -> t -> nprocs:int -> peak_live_threads:int -> peak_live_bytes:int -> int
(** The paper's blowup bound for this configuration on [nprocs]
    processors: [2U/(1-f)] with U = [peak_live_bytes], plus the O(P)
    term the configuration permits (superblock slack, release threshold,
    cache and channel capacities, and [quarantine] (default 0) blocks
    held back by a sanitizer) with P = the peak concurrently-live thread
    population — never the total number of threads ever spawned. Exited
    threads must not widen the envelope: their caches are flushed and
    their superblocks adopted on {!Hoard.on_thread_exit}. The oracle
    ({!Check_run}) and [exp_scale] both assert it. *)

val pp : Format.formatter -> t -> unit
(** Registry-driven: the core shape knobs always print; every other knob
    prints only when it differs from {!default}; a planted mutant prints
    last as [MUTANT=name]. *)
