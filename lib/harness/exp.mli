open Stx_core
open Stx_sim
open Stx_workloads

(** Shared experiment context: one place that runs (benchmark, mode,
    threads) combinations and memoizes the results, so Table 1, Table 4,
    Figure 7 and Figure 8 all describe the same runs — as they do in the
    paper.

    The memo table can be backed by an on-disk {!Stx_runner.Store} (so
    re-running the reproduction is incremental across invocations) and
    filled wholesale by {!prefetch}, which hands all still-missing cells
    to a {!Stx_runner.Pool} of domains. Because every simulation is
    deterministic in its job spec, neither the store nor the pool changes
    any result: a cold sequential run, a parallel run, and a warm-cache
    run produce identical statistics. *)

type t

type cell = Workload.t * Mode.t * int
(** One memo-table coordinate: benchmark, mode, simulated thread count. *)

val create :
  ?seed:int ->
  ?scale:float ->
  ?threads:int ->
  ?jobs:int ->
  ?policy:Stx_policy.t ->
  ?store:Stx_runner.Store.t ->
  unit ->
  t
(** [threads] defaults to 16 (the paper's machine); [scale] to 1.0.
    [jobs] (default 1) is the domain-pool width used by {!prefetch};
    [policy] (default {!Stx_policy.default}) is the HTM policy bundle
    every cell of the context runs under; [store] (default none)
    persists results across invocations. *)

val seed : t -> int
val scale : t -> float
val threads : t -> int
val jobs : t -> int
val policy : t -> Stx_policy.t
val store : t -> Stx_runner.Store.t option

val run : t -> Workload.t -> Mode.t -> Stats.t
(** Run (memoized) at the context's thread count. Baseline and AddrOnly
    run the uninstrumented binary; the staggered modes run the
    ALP-instrumented one, as in §6.2. *)

val run_at : t -> Workload.t -> Mode.t -> threads:int -> Stats.t
(** As {!run} at an explicit thread count (memoized separately). Checks
    the in-memory memo, then the store, then simulates (and persists). *)

val metrics : t -> Workload.t -> Mode.t -> Stx_metrics.Registry.t
(** The metrics registry of the same memoized cell as {!run} — the
    profile report reads histograms and phase counters from here, so it
    always describes the very runs the tables were built from. *)

val sequential : t -> Workload.t -> Stats.t
(** The 1-thread uninstrumented reference used for speedups. *)

val prefetch : ?progress:bool -> t -> cell list -> unit
(** Fill the memo for every listed cell that is still missing, using the
    context's store and [jobs] domains. A cell whose job fails or times
    out is simply left unfilled — the next {!run_at} retries it
    sequentially and raises in its natural context. [progress] (default
    off) prints per-job completion lines on stderr. *)

val standard_cells : t -> cell list
(** The full evaluation matrix: every benchmark × every mode at the
    context's thread count, plus each benchmark's 1-thread baseline
    reference — a superset of what Tables 1/4 and Figures 7/8 need. *)

val speedup : t -> Workload.t -> Stats.t -> float
(** Makespan of the sequential reference over this run's makespan. *)

val rel_performance : t -> Workload.t -> Mode.t -> float
(** Performance normalized to the 16-thread baseline HTM (Figure 7's
    y-axis): baseline cycles / mode cycles. *)
