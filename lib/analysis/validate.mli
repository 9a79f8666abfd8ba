open Stx_trace

(** Trace-backed validation of the static conflict graph.

    Replays a captured event stream and attributes every dynamic
    conflict abort to the source the aggressor core could have been
    executing when it doomed the victim. The event stream does not
    timestamp the dooming access itself, so attribution works over an
    interval: the candidate sources are everything the aggressor ran —
    atomic blocks and outside code — between the victim's (first) begin
    of the aborted transaction and the abort event. An abort is
    {e predicted} when any candidate source has a static edge to the
    victim's block; it is a {e soundness violation} when none does.

    Through the line plane, every predicted abort is additionally
    attributed at line granularity: the event's conflicting-PC tag
    resolves (through the victim block's unified table) to the first
    access the victim made to the conflicting line — unioning the
    whole-program nodes of {e every} table entry the tag matches, since
    the hardware tag names the instruction but not its calling context —
    and {!Layout.classify_conflict} decides whether a predicted
    line-colliding pair covering that access shares the field ({e true
    sharing}) or only the line ({e false sharing}). Because the interval
    heuristic cannot always tell which predicting source doomed the
    victim, every predicting candidate is tried and true sharing wins
    over false (the reported false-sharing fraction is a lower bound).
    An abort whose node-level edge was predicted but whose observed
    field no candidate's line-colliding pair reaches is a {e line-plane
    soundness violation} ([v_line_unsound]).

    Precision is the fraction of predicted static edges that were ever
    observed dynamically. *)

type edge = {
  e_src : Conflict.source;
  e_dst : int;
  e_count : int;
  e_true : int;  (** aborts attributed to same-field (true) sharing *)
  e_false : int;  (** aborts attributed to false sharing *)
  e_unknown : int;
      (** aborts whose victim access did not resolve (no/ambiguous tag)
          or that no line-colliding pair covers *)
}

type t = {
  v_edges : edge list;
      (** observed conflict edges, attributed (descending count) *)
  v_unsound : edge list;  (** observed but not statically predicted *)
  v_conflict_aborts : int;  (** total conflict aborts replayed *)
  v_unattributed : int;  (** conflict aborts with no usable aggressor *)
  v_ambiguous : int;  (** aborts whose attribution had several candidates *)
  v_predicted : int;  (** static edges in the conflict graph *)
  v_observed : int;  (** static edges observed at least once *)
  v_true_sharing : int;  (** predicted aborts attributed to true sharing *)
  v_false_sharing : int;  (** predicted aborts attributed to false sharing *)
  v_sharing_unknown : int;
      (** predicted aborts whose victim access did not resolve to a
          table entry (absent or ambiguous truncated tag) *)
  v_line_unsound : int;
      (** predicted aborts no line-colliding pair covers — zero iff the
          line plane is sound on this trace *)
}

val classify_tag :
  Stx_compiler.Pipeline.t ->
  Conflict.t ->
  Layout.t ->
  tag:int ->
  (int * Conflict.source list) list ->
  Layout.attribution option
(** Line-granular verdict on one conflicting-PC tag, as {!run} gives it
    for each predicted abort. For each victim block [ab] and its
    candidate sources, the tag resolves through [ab]'s unified table to
    the access it names, and {!Layout.classify_conflict} is asked once
    per source. [None] when the tag resolves in no listed block (absent,
    ambiguous, or without a DSA field); [Some Unpredicted] when no
    line-colliding pair covers it; otherwise true sharing wins over
    false across every block and source. *)

val run : ctx:Stx_compiler.Pipeline.t * Layout.t -> Conflict.t -> Trace.t -> t
(** Validates [trace] against the graph, attributing each predicted abort
    at line granularity through [ctx], the compiled program and its line
    plane. *)

val sound : t -> bool
(** No dynamic conflict edge escaped the static graph. *)

val line_sound : t -> bool
(** Every resolved dynamic conflict was covered by a predicted
    line-colliding pair ([v_line_unsound = 0]). *)

val precision : t -> float
(** [v_observed / v_predicted]; [1.0] when nothing was predicted. *)

val false_sharing_fraction : t -> float
(** [v_false_sharing / (v_true_sharing + v_false_sharing)]; [0.0] when
    nothing was attributed at line granularity. *)

val source_label : Conflict.source -> string
(** ["ab3"] or ["outside"]. *)
