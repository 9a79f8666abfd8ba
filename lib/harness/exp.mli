open Stx_core
open Stx_sim
open Stx_workloads

(** Shared experiment context: one place that runs (benchmark, mode,
    threads) combinations and memoizes the results, so Table 1, Table 4,
    Figure 7 and Figure 8 all describe the same runs — as they do in the
    paper.

    A cell is fully described by the context's seed, scale and policy
    plus its own coordinate, and runs bare: the workload compiled with
    ALPs iff the mode uses them, simulated through {!observe} with no
    observer attached. The memo table lives for the process and can be
    filled wholesale by {!prefetch}, which hands every distinct missing
    cell to a {!Stx_runner.Pool} of domains. Because every simulation is
    deterministic in its inputs, the pool changes no result: a
    sequential run and a parallel run produce identical statistics. *)

(** {2 One closed-loop run}

    Every closed-loop simulation of the reports and the executables runs
    here, except those that change a runtime setting (the ablations'
    non-default rows, Figure 1). *)

type observed = {
  stats : Stats.t;
  trace : Stx_trace.Trace.t option;  (** the full capture, if asked for *)
  metrics : Stx_metrics.Collect.t option;  (** the collector, if asked for *)
  telemetry : Stx_telemetry.Series.t option;
      (** the online series, padded to the makespan, if asked for *)
  stream_errors : string list;
      (** the online {!Stx_trace.Check} verdict against [stats] *)
  metrics_errors : string list;
      (** {!Stx_metrics.Collect.check} of the live registry *)
  telemetry_errors : string list;
      (** {!Stx_telemetry.Series.diff} of the online series against a
          replay of the run's capture *)
}

val observe :
  ?trace:bool ->
  ?metrics:bool ->
  ?telemetry:int ->
  seed:int ->
  policy:Stx_policy.t ->
  threads:int ->
  mode:Mode.t ->
  Machine.spec ->
  observed
(** One simulation of the spec on the {!Stx_machine.Config.default}
    machine cut to [threads] cores, under the policy bundle. [trace]
    keeps a full capture, [metrics] attaches the metrics collector and
    [telemetry] a collector of windows that many cycles wide. With none
    of them, [Machine.run] gets no [on_event], so the machine builds no
    event. With any of them, the online event-stream checker is attached
    too, and telemetry keeps a private capture to replay. *)

val failures : observed -> string list
(** Every error, prefixed with its plane: ["trace: "] (the event
    stream), then ["metrics: "], then ["telemetry: "]. *)

(** {2 Experiment contexts} *)

type t

type cell = Workload.t * Mode.t * int
(** One memo-table coordinate: benchmark, mode, simulated thread count. *)

val create :
  ?seed:int ->
  ?scale:float ->
  ?threads:int ->
  ?jobs:int ->
  ?policy:Stx_policy.t ->
  unit ->
  t
(** [threads] defaults to 16 (the paper's machine); [scale] to 1.0.
    [jobs] (default 1) is the domain-pool width used by {!prefetch};
    [policy] (default {!Stx_policy.default}) is the HTM policy bundle
    every cell of the context runs under. Raises [Invalid_argument] on
    [threads < 1], or on a [scale] that is not positive and finite. *)

val seed : t -> int
val scale : t -> float
val threads : t -> int
val jobs : t -> int
val policy : t -> Stx_policy.t

val run : t -> Workload.t -> Mode.t -> Stats.t
(** Run (memoized) at the context's thread count. Baseline and AddrOnly
    run the uninstrumented binary; the staggered modes run the
    ALP-instrumented one, as in §6.2. *)

val run_at : t -> Workload.t -> Mode.t -> threads:int -> Stats.t
(** As {!run} at an explicit thread count (memoized separately). *)

val sequential : t -> Workload.t -> Stats.t
(** The 1-thread uninstrumented reference used for speedups. *)

val prefetch : ?progress:bool -> t -> cell list -> unit
(** Fill the memo for every listed cell that is still missing, using the
    context's [jobs] domains; a cell listed twice simulates once. A cell
    whose simulation fails is simply left unfilled — the next {!run_at}
    retries it sequentially and raises in its natural context.
    [progress] (default off) prints a completion line per cell on
    stderr, labelled ["genome/Staggered/t16"] (plus a fourth segment,
    the {!Stx_policy.label}, under a non-default policy), and a
    {!Stx_runner.Progress.heartbeat} every 10 s while cells run in
    parallel and stdout is not a terminal (CI logs). *)

val standard_cells : t -> cell list
(** The full evaluation matrix: every benchmark × every mode at the
    context's thread count, plus each benchmark's 1-thread baseline
    reference — a superset of what Tables 1/4 and Figures 7/8 need. *)

val speedup : t -> Workload.t -> Stats.t -> float
(** Makespan of the sequential reference over this run's makespan. *)

val rel_performance : t -> Workload.t -> Mode.t -> float
(** Performance normalized to the 16-thread baseline HTM (Figure 7's
    y-axis): baseline cycles / mode cycles. *)
