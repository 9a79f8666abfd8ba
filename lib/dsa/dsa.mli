open Stx_tir

(** Whole-program Data Structure Analysis over TIR.

    Follows Lattner's DSA in the two stages the paper uses (§3.1): a
    {e local} stage builds a unification-based, field-sensitive points-to
    graph per function (a DSNode per abstract object, linked by pointer
    fields), and a {e bottom-up} stage clones each callee's graph into its
    callers at every call site, recording the callee-node → caller-node
    mapping that the unified-anchor-table construction later composes along
    call paths. The top-down stage is deliberately omitted, as in the
    paper ("we utilize only the result from stage 2").

    Recursive call-graph SCCs share one graph (arguments unify directly
    with parameter nodes), which is conservative but sound. *)

type t

val analyze : Ir.program -> t
(** Runs both stages. The program should already pass {!Verify.program}. *)

val call_sccs : Ir.program -> string list list
(** Strongly connected components of the call graph (direct and atomic
    calls), callees first — the bottom-up processing order of the analysis
    itself, exposed for clients that propagate their own per-function
    summaries the same way (e.g. {!Stx_analysis.Summary}). *)

val access_node : t -> int -> (Dsnode.t * int) option
(** [access_node t iid] — the DSNode and field accessed by the load/store
    with instruction id [iid], if the analysis saw one. *)

val map_callee_node : t -> call_iid:int -> Dsnode.t -> Dsnode.t
(** Translate a callee-graph node to the caller's graph across the call
    site with instruction id [call_iid]. Identity for same-SCC (recursive)
    calls and for nodes the mapping does not cover. *)

val accesses_analyzed : t -> int
(** Number of loads/stores the analysis classified (Table 3 bookkeeping). *)
