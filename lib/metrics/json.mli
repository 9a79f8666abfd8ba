(** A deliberately small JSON tree, printer and parser.

    The dependency set has no JSON library (by design — see DESIGN.md),
    and several subsystems need one: the metrics snapshot exporter, the
    telemetry JSON-lines writer and the benchmark's result files. This
    module is the single shared implementation. Integers are kept
    distinct from floats so snapshots of integral counters round-trip
    byte-identically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no insignificant whitespace), object fields in the order
    given, strings escaped per RFC 8259. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON document; [Error] carries a byte offset.
    Numeric literals without [.], [e] or [E] become [Int]. Arrays and
    objects nested more than 512 deep are an [Error]. *)

(** Accessors return [None] on a shape mismatch so callers can fold
    missing-field and wrong-type errors into one path. *)

val member : string -> t -> t option
val as_string : t -> string option
val as_int : t -> int option
val as_float : t -> float option
(** [as_float] also accepts [Int]. *)

val as_list : t -> t list option
val as_obj : t -> (string * t) list option
