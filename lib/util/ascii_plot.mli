(** ASCII line charts for the benchmark figures.

    Renders one or more (x, y) series on a character grid with axes,
    per-series markers and a legend — enough to see the *shape* of a
    speedup curve in terminal output, which is the quantity this
    reproduction validates. *)

val render :
  title:string ->
  ?x_label:string ->
  ?y_label:string ->
  series:(string * (float * float) list) list ->
  unit ->
  string
(** [render ~title ~series ()] plots every series on shared axes
    (60 x 16 interior cells). Series get the
    markers ['*'; '+'; 'o'; 'x'; '#'; '@'] in order; coincident points
    show the later series' marker. Empty series are skipped; an entirely
    empty plot renders the frame only. *)

val markers : char array
(** The marker cycle, exposed for tests. *)
