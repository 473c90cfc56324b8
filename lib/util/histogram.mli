(** Fixed-bucket histograms over non-negative integer samples.

    Used to summarise object-size and latency distributions in benchmark
    reports. *)

type t

val create : bounds:int array -> t
(** [create ~bounds] makes a histogram whose bucket [i] counts samples [x]
    with [bounds.(i-1) <= x < bounds.(i)] (bucket 0 is [x < bounds.(0)]; a
    final overflow bucket counts [x >= bounds.(last)]). [bounds] must be
    strictly increasing and non-empty. *)

val exponential_bounds : lo:int -> hi:int -> int array
(** Power-of-two bucket boundaries covering [\[lo, hi\]]. *)

val log_linear_bounds : lo:int -> hi:int -> sub:int -> int array
(** HDR-style log-linear boundaries covering [\[lo, hi\]]: every
    power-of-two span is cut into [sub] equal linear sub-buckets, bounding
    the relative error of {!percentile} by [1/sub] instead of the factor
    of two a pure power-of-two layout allows. Sub-buckets narrower than 1
    collapse into exact integer buckets at the low end. [sub >= 1]. *)

val create_log_linear : lo:int -> hi:int -> sub:int -> t
(** [create ~bounds:(log_linear_bounds ~lo ~hi ~sub)]. *)

val add : t -> int -> unit

val count : t -> int
(** Total number of samples. *)

val total : t -> int
(** Sum of all samples. *)

val min_value : t -> int option

val max_value : t -> int option

val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> int
(** [percentile t q] for [q] in [\[0, 1\]]: an upper bound on the q-th
    quantile (the exclusive upper bound of the bucket where the quantile
    falls; [max_value] for the overflow bucket). 0 when empty. *)

val buckets : t -> (int * int * int) array
(** [(lo, hi_exclusive, count)] per bucket; the overflow bucket reports
    [hi_exclusive = max_int]. *)
