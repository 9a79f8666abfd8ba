open Stx_tir
open Stx_dsa

(** The line-granular layout plane: a lowering of per-atomic-block field
    footprints through the allocator's placement model onto concrete
    cache-line sets.

    The static conflict graph ({!Conflict}) predicts edges at DSNode
    granularity, but the hardware detects conflicts at {e cache-line}
    granularity: two transactions touching {e distinct} fields of one
    object still collide when the fields share a line. This module
    refines every node-level conflict edge into a set of field {!pair}s
    and classifies each pair as {e true sharing} (same field) or
    {e false sharing} (distinct fields, same line) — the input to the
    STX106/STX108 lints and to the trace validator's abort attribution.

    The placement model mirrors {!Stx_machine.Alloc} exactly: with the
    default line-aligned allocator every object starts on a line boundary
    and is padded to a whole number of lines, so field [f] of a struct
    lands on intra-object line [f / words_per_line] ({!Exact}); arrays
    whose element stride is a multiple of the line size behave per
    element the same way; packed arrays (stride not a line multiple),
    collapsed nodes and untyped nodes give up field→line resolution
    ({!Aliased} — any two fields may share a line, which keeps every
    classification conservative rather than wrong).

    The same machinery yields a sound {e lower} bound on the distinct
    lines a completing execution of each block must touch
    ({!capacity_bound}, the STX107 input): accesses in basic blocks that
    dominate every reachable [Ret] of the block's root function (and of
    callees reached from such blocks) must execute before commit;
    distinct DSNodes are disjoint line-aligned objects, so distinct
    [(node, line-class)] pairs are distinct hardware lines. *)

type placement =
  | Exact of { span : int; line_of_field : int array }
      (** Instances are line-aligned and occupy [span] lines; field [f]
          lives on intra-object line [line_of_field.(f)]. For an array
          node the mapping is per element. *)
  | Aliased of { reason : string }
      (** No field→line resolution (collapsed / untyped / packed array):
          assume any two fields may share a line. *)

type sharing =
  | True_sharing  (** same field — a genuine data conflict *)
  | False_sharing
      (** distinct fields on one line — an artifact of line-granular
          detection that padding could remove *)

type pair = {
  p_gid : int;  (** whole-program node id both sides touch *)
  p_src_field : int;
  p_dst_field : int;
  p_line : int option;
      (** the shared intra-object line class ([Exact] placement);
          [None] when the node's placement is [Aliased] *)
  p_sharing : sharing;
}

type bound = {
  lb_min_read : int;
      (** distinct lines every completing execution must load *)
  lb_min_write : int;  (** distinct lines it must store *)
  lb_aliased : bool;
      (** an [Aliased]-placement node contributed (counted as one line,
          so the bound is weaker but still sound) *)
}

type t

val build : Ir.program -> Dsa.t -> Conflict.t -> t
(** Eagerly refines every edge of the conflict graph and bounds every
    block, at the Table 2 machine's line size
    ({!Stx_machine.Config.default}). *)

val words_per_line : t -> int

val placement : t -> gid:int -> placement option
(** Placement of a whole-program node id; [None] for an id the conflict
    walk never produced. *)

val struct_of : t -> gid:int -> Types.strct option
(** The struct type behind a global node id, when it resolves to one the
    program defines (for diagnostics: field names, offsets). *)

val pairs : t -> src:Conflict.source -> dst:int -> pair list
(** The line-level refinement of a node-level edge: every
    line-colliding field pair, sorted by [(gid, src_field, dst_field)].
    Empty both for absent node-level edges and for node-level edges
    whose fields never share a line — the refinement may {e drop}
    edges. *)

val edges : t -> (Conflict.source * int * pair list) list
(** Every node-level edge with its refinement, in {!Conflict.edges}
    order (including edges whose refinement is empty). *)

val conflict_lines : t -> gid:int -> int list
(** The distinct intra-object line classes of [Exact]-placement nodes
    that carry at least one conflicting pair, across every edge — the
    contended lines of the object (sorted). Empty for [Aliased]
    placements. *)

val capacity_bound : t -> ab:int -> bound
(** The must-execute line-footprint lower bound of a block. A
    transaction can commit with exactly [budget] distinct lines in a
    set, so the block {e always} overflows a [bounded:R:W] policy iff
    [lb_min_read > R] or [lb_min_write > W]. *)

type attribution =
  | Attributed of sharing
      (** a predicted line-colliding pair covers the observed access *)
  | Unpredicted
      (** the node-level edge exists but no line-colliding pair reaches
          the observed field's line — a line-plane soundness violation
          if it ever happens on a dynamic edge *)

val classify_conflict :
  t -> src:Conflict.source -> dst:int -> gids:int list -> field:int
  -> attribution
(** Attribute a dynamic conflict abort: the victim's first access to the
    conflicting line resolved to block-local node → [gids] (its
    whole-program ids, one per call path, via {!Conflict.to_global}) and
    [field]. A pair is relevant when it lives on one of [gids] and its
    destination field shares the observed field's line class (any pair,
    for [Aliased] placements). True sharing wins over false when both
    are relevant, keeping the reported false-sharing fraction a lower
    bound. *)
