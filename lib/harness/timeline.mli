(** Memory-consumption timelines.

    Wraps an allocator to sample (simulated time, held bytes, live bytes,
    resident bytes) every few operations, turning the blowup *bound*
    experiments into curves: pure private heaps' held memory climbs
    forever under producer-consumer while Hoard's stays pinned to the
    live line. The [resident] series is the RSS-over-time view: with a
    decommit policy (large-cache parking), resident drops below held, which
    only a curve — not an end-of-run figure — makes visible. *)

type sample = {
  at : int;  (** simulated cycles *)
  held : int;
  live : int;
  resident : int;  (** committed pages, the simulated RSS *)
}

type t

(** Which series {!plot} draws. *)
type metric = Held | Live | Resident

val wrap : ?every:int -> Alloc_intf.t -> t * Alloc_intf.t
(** Samples once per [every] operations (default 32); a batch call counts
    as one operation. Simulated-platform only (timestamps come from
    {!Sim.now}). *)

val samples : t -> sample list
(** In chronological order. *)

val peak_held : t -> int

val peak_resident : t -> int

val metric_value : metric -> sample -> int

val metric_name : metric -> string

val plot : ?metric:metric -> (string * t) list -> title:string -> string
(** Bytes-over-time curves (KiB) for several labelled timelines on one
    chart; [metric] selects the series (default {!Held}). *)
