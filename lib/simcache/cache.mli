(** Directory-based cache-coherence simulator.

    Models the property false sharing is defined by: at any instant each
    cache line is either uncached, held Shared by a set of processors, or
    held Exclusive (dirty) by one processor. Reads and writes update the
    directory MESI-style and are classified as hits, cold misses (line
    never cached by this processor before and not supplied by a peer) or
    coherence misses (another processor's copy had to be downgraded or
    invalidated). Writes invalidate remote copies; every invalidation is
    counted on both sides, which is the direct measurement behind the
    paper's active/passive false-sharing experiments.

    Caches are infinite (no capacity evictions) and lines are
    {!line_size} = 64 bytes; neither is an option. The experiments target
    coherence traffic, not working-set effects, and an infinite cache
    gives a *lower bound* on misses that still exposes false sharing
    exactly. *)

type t

type proc = int

(** Classification of one line access. *)
type outcome =
  | Hit
  | Cold_miss  (** first touch of this line by this processor, no remote copy *)
  | Coherence_miss  (** a remote copy was downgraded or invalidated to serve it *)

type summary = {
  hits : int;
  cold_misses : int;
  coherence_misses : int;
  invalidations_sent : int;  (** remote copies killed by this access *)
  cross_node_events : int;
      (** coherence events (miss service or invalidation) whose peer sits
          on a different NUMA node; 0 on flat machines *)
  cross_socket_events : int;
      (** coherence events whose peer sits on a different socket (the
          two-tier topology's outer tier); 0 on single-socket machines *)
}
(** Aggregate over the (possibly several) lines an access spans. *)

type proc_stats = {
  p_hits : int;
  p_cold_misses : int;
  p_coherence_misses : int;
  p_invalidations_sent : int;
  p_invalidations_received : int;
}

val line_size : int
(** Bytes per cache line: 64. *)

val create : ?node_of:(proc -> int) -> ?socket_of:(proc -> int) -> nprocs:int -> unit -> t
(** [nprocs] must be in [\[1, 1024\]] (processor sets are multi-word bit sets).
    [node_of], when given, assigns each processor to a NUMA node;
    coherence events between processors on different nodes are counted in
    [cross_node_events] (the simulator charges them extra). [socket_of]
    likewise assigns each processor to a socket for the two-tier
    topology; socket-crossing events are counted in
    [cross_socket_events] and charged the steeper
    {!Cost_model.t.cross_socket} surcharge. Both maps are materialised
    and validated at creation: ids must lie in [\[0, nprocs)] and be
    contiguous (every id up to the maximum used), otherwise
    [Invalid_argument] is raised — a silently out-of-range id would
    miscount cross-domain events. *)

val nprocs : t -> int

val read : t -> proc -> addr:int -> len:int -> summary

val write : t -> proc -> addr:int -> len:int -> summary

val stats : t -> proc -> proc_stats

val total_cross_node_events : t -> int

val total_cross_socket_events : t -> int

val node_of : t -> proc -> int
(** NUMA node of a processor under the validated map. *)

val socket_of : t -> proc -> int
(** Socket of a processor under the validated map. *)

val total_invalidations : t -> int
(** Sum over processors of invalidations received. *)

val total_coherence_misses : t -> int

val sharers : t -> line:int -> proc list
(** Processors currently holding the line (empty if uncached). *)

val reset_stats : t -> unit
(** Zeroes all counters; directory state is preserved. *)
