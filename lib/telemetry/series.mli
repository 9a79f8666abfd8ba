(** Tumbling-window time series over simulated cycles.

    Every whole-run aggregate the repo reports — [Stats], the metrics
    registry, the serve SLO quantiles — answers "how much", never
    "when". A series answers "when": the run's horizon is cut into
    tumbling windows of a fixed width (cycles), and each window carries
    the counts, occupancies and (in serving runs) request-plane
    observations that fell inside it. The series is produced by
    {!Collect} (online from the {!Stx_sim.Machine} event hook, or
    offline by replaying a {!Stx_trace.Trace} capture — the two are
    equal by construction) and consumed by the {!Episodes} detectors,
    the CSV/JSONL writers below, and the [stx_repro report] HTML
    renderer.

    Window [i] covers cycles [[i*width, (i+1)*width)]. A point event at
    time [t] lands in window [t / width]; a span of [c] cycles ending at
    [t] (an attempt's latency) is distributed over the windows it
    overlaps, so per-window occupancy cycles sum exactly to the run's
    totals no matter where the window boundaries cut. *)

type column = private { index : int; name : string }
(** One per-window count: its slot in [window.counts], and its name in
    the CSV header, the JSONL objects and {!diff}'s messages. *)

(** The columns, in output order: speculative hardware, irrevocable
    (global-lock) and software-tier commits; the five hardware abort
    kinds ([stm_conflict_aborts] are inflicted by software-tier
    publishes) and software-tier aborts of every kind; advisory-lock
    wait episodes begun, acquires and timeouts; software-tier and
    global-lock occupancy cycles; and the serving plane's arrivals,
    completed requests and deepest queue seen at a dispatch. *)

val hw_commits : column
val irrevocable_commits : column
val stm_commits : column
val conflict_aborts : column
val locksub_aborts : column
val capacity_aborts : column
val explicit_aborts : column
val stm_conflict_aborts : column
val stm_aborts : column
val lock_waits : column
val lock_acquires : column
val lock_timeouts : column
val stm_cycles : column
val lock_cycles : column
val offered : column
val completed : column
val queue_peak : column

val columns : column list
(** Every column, [index] ascending: the output order. *)

type window = {
  counts : int array;  (** one slot per column *)
  busy : int array;
      (** per-core cycles spent inside transactional attempts (either
          tier, committed or aborted, incl. irrevocable), span-split
          across windows *)
  sojourn : Stx_metrics.Hist.t;
      (** serving plane: sojourn sketch of requests completing in this
          window; empty in closed-loop runs *)
  conf_lines : (int, int) Hashtbl.t;
      (** conflicting cache line -> conflict aborts *)
  conf_pcs : (int, int) Hashtbl.t;  (** conflicting PC tag -> conflict aborts *)
}
(** {!Collect} fills its windows in place and hands out copies. *)

val empty : threads:int -> window
(** A window with every count zero. *)

val get : window -> column -> int

type t = { width : int; threads : int; windows : window array }

val length : t -> int
val commits : window -> int
(** All tiers: [hw + irrevocable + stm]. *)

val aborts : window -> int
(** Both tiers: the five hardware kinds plus the software-tier aborts. *)

val busy_total : window -> int
val htm_cycles : window -> int
(** Busy cycles in neither the software tier nor under the global lock:
    [busy_total - stm_cycles - lock_cycles]. *)

val merge : t -> t -> t
(** Pointwise sum of two series of the same width and thread count
    (counts and occupancies add, queue peaks max, sojourn sketches
    merge, line/PC tallies union-sum); the longer tail is kept as-is.
    Associative and commutative, so sharded serve runs merged in shard
    order are independent of [--jobs]. Raises [Invalid_argument] on a
    width or thread-count mismatch. *)

val equal : t -> t -> bool
val diff : t -> t -> string list
(** Human-readable divergences, [[]] iff {!equal}. *)

(** {2 Writers}

    Both are deterministic functions of the series (plus the caller's
    [meta] pairs, emitted in the order given): equal series render
    byte-identically. *)

val to_csv : ?meta:(string * string) list -> t -> string
(** One row per window. Leading [# key=value] comment lines carry the
    meta; the header row names fixed columns plus one [busy_c<i>] column
    per core. Sojourn quantiles are rendered as p50/p99 columns; the
    full sketch only survives in the JSONL form. *)

val to_jsonl : ?meta:(string * string) list -> t -> string
(** Line 1 is a header object ([schema]/[version]/[width]/[threads] and
    the meta), then one JSON object per window with every field,
    including the full sojourn sketch and line/PC tallies. *)
