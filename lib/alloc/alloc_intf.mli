(** The allocator interface every implementation exposes.

    Mirrors the C allocation API: [malloc size] returns the simulated
    address of a block of at least [size] bytes; [free addr] releases a
    block previously returned by the same allocator. The extended entry
    points (batches, [flush], [realloc]/[calloc]/[aligned_alloc]) are
    record members so an implementation can override them with something
    better than the generic code — build instances with {!Alloc_api.make},
    which supplies correct defaults for everything beyond the core
    malloc/free. *)

type t = {
  name : string;
  owner : int;  (** this allocator's {!Vmem} owner tag *)
  large_threshold : int;
      (** requests strictly above this size take the page-direct
          large-object path (S/2 in the paper) *)
  malloc : int -> int;
  free : int -> unit;
  usable_size : int -> int;
      (** actual capacity of the block at the given address; raises
          [Invalid_argument] on a foreign address *)
  stats : unit -> Alloc_stats.snapshot;
  check : unit -> unit;
      (** validates internal invariants, raising [Failure] on corruption;
          cheap enough to call from tests after every operation *)
  malloc_batch : int -> int -> int array;
      (** [malloc_batch n size]: [n] blocks of at least [size] bytes.
          Default: [n] repeated mallocs; batching allocators amortise
          their per-call path and lock traffic instead (Hoard: one path
          cost per call, its front-end cache first, then one heap lock
          for the rest that also refills the cache, as a single
          malloc's miss does). *)
  free_batch : int array -> unit;
      (** frees every address, with [free]'s errors for each; default is
          repeated [free]. A batching allocator pays its per-call path
          cost once (Hoard with a front end). *)
  flush : unit -> unit;
      (** returns whatever the calling thread's front end holds (cached
          blocks, queued remote frees) to the shared structure; a no-op
          for allocators without a front end. *)
  thread_exit : unit -> unit;
      (** the calling thread is about to retire: release everything it
          privately holds AND its heap assignment, so superblocks left
          behind are adopted rather than stranded (see
          {!Hoard.on_thread_exit}). Defaults to [flush] for allocators
          without per-thread state. Idempotent — a second call from the
          same thread is a no-op. *)
  realloc : addr:int -> size:int -> int;
      (** resize, in place when possible; see {!Alloc_api.make} for the
          generic allocate-copy-free default. *)
  calloc : count:int -> size:int -> int;
      (** zeroed allocation of [count * size] bytes. *)
  aligned_alloc : align:int -> size:int -> int;
      (** block whose address is a multiple of [align] (a power of two,
          at most the platform page size). *)
}

type factory = {
  label : string;
  description : string;
  instantiate : Platform.t -> t;
  vmem_backend : Vmem_backend.kind;
      (** address-space reuse policy of the simulated OS the allocator
          runs on; the harness builds every machine with it, so a run
          always uses the backend its configuration names *)
}
(** How the harness creates a fresh allocator per experiment run. *)

val next_owner : unit -> int
(** Process-unique {!Vmem} owner tags, so several allocators can share one
    address space with separate accounting. *)
