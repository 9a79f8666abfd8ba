(** A labelled metrics registry: counters, gauges and {!Hist} histograms
    keyed by (name, sorted label set).

    Everything the registry exposes — iteration, the JSON snapshot,
    {!diff} — is ordered by (name, labels), so
    two registries holding the same data render byte-identically no
    matter what order events arrived in. That determinism is what lets
    the online collector and the trace-replay collector be compared for
    exact equality (see {!Collect}).

    {!merge} follows the [Stats.merge] conventions: counters and
    histograms are accumulations and sum; gauges are high-water marks
    (capacities, not counts) and take the max. *)

type labels = (string * string) list

type value = Counter of int | Gauge of int | Histogram of Hist.t
(** [Histogram] exposes the registry's own histogram: callers must not
    mutate it. *)

type t

val create : unit -> t

(** Metric and label names must match [[a-zA-Z_][a-zA-Z0-9_]*]; label
    values may be any non-empty string (each rendering escapes what its
    framing needs — {!diff} with backslash sequences, JSON per RFC
    8259). An empty value,
    a malformed name, reusing a (name, labels) key at a different
    metric type, or duplicate label keys raises [Invalid_argument]:
    metric identity is part of each exporter's schema, so a malformed
    one is a programming error, not data. *)

(** {2 Handles}

    A handle is one series resolved ahead of its writes, for writers
    that hit the same series on every event. Making it validates and
    sorts the key (and raises on a malformed one, as every writer does);
    its first write finds or creates the cell, and every later write
    goes straight to that cell: no label list is built, sorted or
    hashed. Until that first write the series does not exist, so an
    unwritten handle leaves every reading, the JSON snapshot and
    {!diff} exactly as they were. A handle and a keyed write to the
    same key share one cell; a handle whose key already holds another
    metric type raises [Invalid_argument] at its first write. *)

type counter
type hist

val counter : t -> string -> labels -> counter
val hist : t -> string -> labels -> hist

val add : counter -> int -> unit
(** Add a non-negative amount; [add h 0] still creates the counter at
    0, as [inc ~by:0] does. *)

val record : hist -> int -> unit
(** Record one histogram observation (non-negative). *)

(** {2 Keyed writes}

    Each resolves its key afresh, through the same path as the handles. *)

val inc : t -> ?by:int -> string -> labels -> unit
(** Add [by] (default 1, must be >= 0) to a counter, creating it at 0. *)

val set_gauge : t -> string -> labels -> int -> unit
(** Raise a gauge to [v] if [v] exceeds its current value (create at [v]). *)

val observe : t -> string -> labels -> int -> unit
(** Record one histogram observation (non-negative). *)

val counter_value : t -> string -> labels -> int
(** 0 when absent. *)

val gauge_value : t -> string -> labels -> int
(** 0 when absent. *)

val histogram : t -> string -> labels -> Hist.t option

val fold :
  (string -> labels -> value -> 'a -> 'a) -> t -> 'a -> 'a
(** In (name, labels) order. *)

val cardinality : t -> int

val merge : t -> t -> t
(** Fresh registry; counters/histograms sum, gauges max. Raises
    [Invalid_argument] if the two registries disagree on a key's type. *)

val equal : t -> t -> bool
val diff : t -> t -> string list
(** Human-readable divergences, [[]] iff {!equal}. *)

val to_json : t -> Json.t
val to_json_string : t -> string
(** The snapshot document:
    [{"schema":"stx-metrics","version":1,"metrics":[...]}] with one
    entry per metric in (name, labels) order. *)
