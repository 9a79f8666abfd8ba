(** Diagnostics: stable codes, severities, and renderers.

    Codes are append-only and never recycled:

    - [STX101] (error) — conflict-prone access with no anchor coverage
    - [STX102] (warning) — advisory lock over never-written data
    - [STX103] (warning) — lock-order hazard between anchored nodes
    - [STX104] (error/warning) — read-only classification disagreement
    - [STX105] (warning) — truncated-PC tag collision in a unified table
    - [STX106] (warning) — false sharing: distinct hot fields on one line
    - [STX107] (error/info) — static capacity-overflow prediction against
      a [bounded:R:W] budget (error when the minimal line footprint
      already exceeds it)
    - [STX108] (info) — padding/coloring fix-it separating an STX106 pair
    - [STX109] (warning) — distinct hot lines aliasing onto one STM
      write-lock stripe
    - [STX110] (info) — advisory-lock anchor whose node spans lines never
      co-accessed with the conflicting field *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable machine code, e.g. ["STX101"] *)
  severity : severity;
  ab : int option;  (** atomic block concerned *)
  func : string option;  (** function of the offending instruction *)
  iid : int option;  (** offending instruction *)
  message : string;  (** single line, human-oriented *)
}

val make :
  ?ab:int -> ?func:string -> ?iid:int -> code:string -> severity:severity
  -> string -> t

val sort : t list -> t list
(** Errors first, then warnings, then infos; within a severity by code,
    block, function, instruction and message. The sort is stable, so the
    full ordering is deterministic for any input order. *)

val count : severity -> t list -> int
val has_errors : t list -> bool

val render_text : t -> string
(** One line: [error[STX101] ab=1 list_insert#37: message]. Embedded
    tabs/newlines in the message render as spaces. *)

val tsv_header : string

val tsv_escape : string -> string
(** The escaping {!render_tsv} applies to free-form cells — tabs,
    newlines and backslashes become [\t], [\n], [\r], [\\] — exposed so
    other TSV emitters (e.g. [stx_repro profile --format tsv]) share one
    convention. *)

val render_tsv : t -> string
(** Tab-separated [severity code ab func iid message], missing fields as
    [-]. Tabs, newlines and backslashes embedded in the message are
    escaped ([\t], [\n], [\r], [\\]) so a row is always exactly one line
    of exactly six cells. *)
