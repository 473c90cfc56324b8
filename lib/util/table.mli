(** ASCII and CSV rendering for the tables and figure series that the
    benchmark harness regenerates. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** [create ~title ~columns] begins a table with the given header. *)

val add_row : t -> string list -> unit
(** Appends a row; must have exactly one cell per column. *)

val add_separator : t -> unit
(** Inserts a horizontal rule between row groups. *)

val render : t -> string
(** Boxed ASCII rendering. *)

val to_csv : t -> string
(** Comma-separated rendering (header row included, title omitted). Cells
    containing commas or quotes are quoted. *)

val to_json : t -> string
(** One JSON object [{"title", "columns", "rows"}] with every cell a
    string (separators are omitted) — the machine-readable form CI
    report artifacts are built from. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val cell_float : float -> string
(** Canonical float formatting used across reports ("%.2f"). *)

val cell_ratio : float -> string
(** Ratio formatting ("%.2fx"). *)
