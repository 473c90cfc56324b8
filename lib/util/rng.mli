(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction (workload generators,
    property tests, trace generators) draws from an explicitly seeded [Rng.t]
    so that runs are bit-reproducible across hosts. *)

type t

val create : int -> t
(** [create seed] returns a generator seeded with [seed]. Distinct seeds
    yield well-decorrelated streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean. Used for object-lifetime models. *)
