(** Cycle cost model for the simulated multiprocessor.

    The constants are loosely calibrated to a late-1990s bus-based SMP (the
    paper's Sun Enterprise 5000 class of machine): an L1/L2 hit is cheap, a
    miss that must consult memory or another processor's cache costs tens of
    cycles, and lock operations pay a coherence round-trip. Absolute values
    only scale the curves; the reproduced results depend on their ratios. *)

type t = {
  cache_hit : int;  (** load/store hitting in the local cache *)
  cold_miss : int;  (** line never cached anywhere: memory fetch *)
  coherence_miss : int;  (** line held elsewhere: cache-to-cache transfer *)
  invalidation : int;  (** cost charged to a writer per remote copy killed *)
  lock_uncontended : int;  (** acquiring a free lock (RMW round-trip) *)
  lock_spin : int;  (** one spin-retry iteration on a held lock *)
  lock_release : int;
  page_map : int;  (** OS call to map pages *)
  page_unmap : int;
  page_decommit : int;  (** [madvise(DONTNEED)]-style page drop: address space kept *)
  page_commit : int;  (** fault-in repopulating a decommitted region *)
  cross_node : int;
      (** additional cycles per coherence event (miss service or
          invalidation) that crosses a NUMA node boundary; only charged
          when the machine is given a topology (see {!Cache.create}). *)
  cross_socket : int;
      (** additional cycles per coherence event that crosses a socket
          boundary in the two-tier topology — remote-socket miss service
          and cross-socket invalidations ride the inter-socket link, so
          this is charged on top of [cross_node] and is distinctly
          larger; 0 on single-socket machines. *)
  atomic_op : int;
      (** one hardware atomic that writes (CAS, successful or not,
          fetch-and-add, atomic store): the read-modify-write round-trip
          beyond the cache traffic on the operand's line, same order as an
          uncontended lock acquisition. An atomic load pays no
          [atomic_op]: it costs the cache access alone, like a plain
          load. *)
}

val default : t

val uniform_memory : t
(** Degenerate model where all memory accesses cost the same — used by
    tests to isolate scheduling behaviour from cache behaviour. *)

val cheap_memory : t
(** Fast-memory variant (misses ~2x a hit): a machine where the
    interconnect is nearly free. Used by the cost-model sensitivity
    analysis. *)

val expensive_memory : t
(** Slow-memory variant (misses and invalidations ~3x the default):
    a machine dominated by coherence traffic. *)
