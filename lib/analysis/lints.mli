open Stx_compiler

(** The lints over a compiled program (STX101–STX105 on the node-level
    conflict graph, STX106–STX110 on the line-granular {!Layout} plane).
    Each returns its diagnostics unsorted; {!all} concatenates and sorts
    them. *)

val missed_anchor_entries :
  instrumented:bool ->
  ab:int ->
  is_store:(int -> bool) ->
  prone:(store:bool -> int -> bool) ->
  Unified.entry array ->
  Diag.t list
(** Core of the missed-anchor lint over a bare entry array (exposed so
    tests can fabricate tables): every entry whose block-local node is
    conflict-prone must resolve — itself or through its pioneer — to an
    anchor, and on an instrumented program that anchor must carry an ALP
    site. [STX101], error. *)

val read_only : ?claimed:bool array -> Pipeline.t -> Summary.t -> Diag.t list
(** Cross-check the pipeline's per-block read-only classification
    against the may-write summaries. A block claimed read-only that may
    write is unsound (error); the reverse is pessimization (warning).
    [claimed] overrides [Pipeline.read_only] (for tests). [STX104]. *)

val truncated_pc : Pipeline.t -> Diag.t list
(** Unified-table tags where several distinct instruction PCs fold onto
    one hardware tag, so [search_by_truncated_pc] can return the wrong
    entry. [STX105], warning. *)

val false_sharing : Pipeline.t -> Layout.t -> Diag.t list
(** Distinct fields of one object placed on one cache line and touched
    by opposite sides of a conflict edge: the hardware collides
    transactions that never touch the same data. One diagnostic per
    [(node, line, field pair)], naming the witnessing edges. Only
    [Exact]-placement witnesses are reported (an aliased placement
    cannot name a concrete shared line). [STX106], warning. *)

val capacity_overflow :
  capacity:Stx_policy.Capacity.t -> Pipeline.t -> Layout.t -> Diag.t list
(** Per-block must-execute line footprints checked against a
    [bounded:R:W] capacity policy: a block whose sound lower bound
    already exceeds a budget {e always} aborts with [Capacity] and can
    only complete through the fallback (error); a bound exactly at a
    budget leaves no headroom (info). Empty under [Unbounded].
    [STX107]. *)

val stripe_aliasing : ?nslots:int -> Stx_trace.Trace.t -> Diag.t list
(** Trace-backed: conflicting cache lines (every line with a conflict
    abort) that hash onto the same STM write-lock stripe
    ({!Stx_stm.Stm.stripe_of_line}; [nslots] defaults to the tier's
    256). Software-tier traffic on any of them locks and
    versions the same stripe, so validation aborts cross between
    unrelated lines. [STX109], warning. *)

val all :
  ?capacity:Stx_policy.Capacity.t -> ?plane:Layout.t -> Pipeline.t
  -> Summary.t -> Conflict.t -> Diag.t list
(** Every static lint. The line plane is built on demand when [plane]
    is not supplied; STX107 runs only when [capacity] is given (the
    budget to check against); the trace-backed {!stripe_aliasing} is
    not included — it needs a trace. *)
