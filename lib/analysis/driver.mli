open Stx_compiler
open Stx_trace

(** One-call entry point: run the whole static analysis over a compiled
    program and render the results. *)

type t = {
  a_name : string;
  a_pipeline : Pipeline.t;
  a_summary : Summary.t;
  a_graph : Conflict.t;
  a_plane : Layout.t;  (** the line-granular layout plane *)
  a_capacity : Stx_policy.Capacity.t option;
      (** the capacity budget STX107 was checked against, if any *)
  a_diags : Diag.t list;  (** sorted: errors first *)
}

type format = Text | Tsv

val analyze :
  ?name:string ->
  ?resolution:Stx_policy.Resolution.t ->
  ?capacity:Stx_policy.Capacity.t ->
  Pipeline.t ->
  t
(** Summaries, conflict graph, line plane, and all lints. [resolution]
    (default [Requester_wins]) selects the conflict-resolution policy
    the graph — and the resolution-aware STX103 lint — are computed
    under. [capacity] enables the STX107 capacity-overflow prediction
    against that budget (omitted: no STX107 diagnostics). The line plane
    is lowered to {!Stx_machine.Config.default}'s line size. Also re-verifies
    the instrumented program ({!Stx_tir.Verify.program}), so a compiler
    pass that broke the IR fails here rather than in the simulator. *)

val has_errors : t -> bool

val render : ?format:format -> t -> string
(** [Text]: a report with per-block footprints, the conflict matrix and
    the diagnostics. [Tsv]: one machine-readable row per diagnostic,
    prefixed by the analysis name, with a header line. *)

val render_layout : ?format:format -> t -> string
(** The line-granular section: per-block must-execute line-footprint
    lower bounds (and the budget they were checked against, when
    [analyze] got a bounded [capacity]) plus the line-level refinement
    of every conflict edge — how many field pairs actually collide on a
    line, split into true and false sharing, with edges the refinement
    discharged entirely called out. [Tsv]: [bound] rows
    ([name bound ab - min_read min_write aliased]) and [lineedge] rows
    ([name lineedge src dst pairs true false]). *)

val validate : t -> Trace.t -> Validate.t
(** Runs {!Validate.run} with this analysis' pipeline and line plane as
    context, so every predicted abort is also attributed to true or
    false sharing. *)

val render_validation : ?format:format -> t -> Validate.t -> string
(** [Text]: observed/unsound edge listing (each edge annotated with its
    true/false/unresolved sharing split), the line-attribution summary
    with the false-sharing fraction and line-soundness verdict, plus
    the precision summary. [Tsv]:
    [name edge src dst count predicted true false unresolved] rows
    followed by [precision] and [sharing] summary rows. *)
