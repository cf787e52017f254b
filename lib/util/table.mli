(** Plain-text table rendering for experiment reports.

    Used by the harness and the CLI to render the paper's Figure 14 and
    Figure 15 tables (and our ablations) in aligned columns. *)

type t

val create : header:string list -> unit -> t
(** [create ~header ()] starts a table. The first column is left-aligned,
    the rest right-aligned. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows are
    an error. *)

val add_separator : t -> unit
(** Insert a horizontal rule between row groups. *)

val render : t -> string
(** The table as aligned text: header, rule, rows, each ending in a newline. *)

val cell_float : float -> string
(** Two-decimal rendering used for the paper's statistics columns. *)

val cell_int : int -> string
