(** Minimal ASCII table renderer for the experiment harness. Columns are
    sized to their widest cell; numeric-looking cells (figures, ratios
    such as ["1.18x"], percentages and [0x]-prefixed hex literals) are
    right-aligned. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows
    are truncated. *)

val render : t -> string
(** Render including a border and header rule, newline-terminated. *)

val print : t -> unit

val fmt_f : ?dec:int -> float -> string
(** Fixed-point float with [dec] (default 2) decimals. *)

val fmt_pct : ?dec:int -> float -> string
(** Percent with a ["%"] suffix (default 0 decimals). *)
