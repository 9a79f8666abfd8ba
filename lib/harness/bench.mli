open Stx_workloads

(** The machine-readable bench pipeline: run the Figure 7 suite (every
    benchmark under every runtime mode), distill each cell into a small
    set of headline numbers, write them as a schema-versioned
    [BENCH_stx.json], and gate later runs against an earlier snapshot.

    The simulator is deterministic, so two snapshots taken at the same
    (seed, scale, threads) differ only when the code changed — which is
    exactly what {!compare} is for: CI keeps a committed baseline and
    fails the build when throughput moves past a threshold. *)

type entry = {
  workload : string;
  mode : string;  (** [Mode.to_string] *)
  throughput : float;  (** commits per million simulated cycles *)
  abort_rate : float;  (** aborts / (commits + aborts) *)
  p99_latency : int;  (** p99 committed-attempt latency, cycles *)
  prefix_share : float;
      (** speculative-prefix cycles / committed tx cycles *)
  suffix_share : float;
      (** serialized-suffix cycles / committed tx cycles *)
}

type sim_entry = {
  sim_workload : string;
  sim_events : int;  (** simulated instructions executed by the timed run *)
  sim_events_per_sec : float;  (** wall-clock simulation rate *)
  sim_minor_words_per_event : float;
      (** [Gc.minor_words] delta of the timed run / events; persisted to
          JSON as [minor_words_per_1k_events] (this field × 1000) *)
}

type t = {
  schema_version : int;
  seed : int;
  scale : float;
  threads : int;
  entries : entry list;  (** sorted by (workload, mode) *)
  sims : sim_entry list;
      (** simulator-core throughput series, measured at the fixed
          ({!sim_cores}, {!sim_scale}, seed 1) point *)
}

val schema_version : int
(** Stamped into the snapshot ({b 2}); {!read} rejects other versions.
    v2 added the [sims] series. *)

val sim_cores : int
(** Core count the sim-throughput series is measured at (16). *)

val sim_scale : float
(** Workload scale the sim-throughput series is measured at (0.2). *)

val measure_sim :
  ?cores:int -> ?scale:float -> ?seed:int -> Workload.t -> sim_entry
(** Wall-clock throughput of the simulator core on one workload (Baseline
    mode, default 16 cores, scale 0.2): a warmup run, then a timed run
    bracketed by [Gc.minor_words]. Never memoised. *)

val sim_suite :
  ?cores:int -> ?scale:float -> ?seed:int -> unit -> sim_entry list
(** {!measure_sim} over every registered workload. *)

val render_sim : ?cores:int -> sim_entry list -> string

val entry_of_run : workload:string -> mode:Stx_core.Mode.t -> Stx_metrics.Run.t -> entry
(** Distill one run into its cell: throughput and abort rate from the
    stats, p99 committed latency and the phase shares from the registry
    (read by label subset, whatever [policy] label the run carried). *)

val suite_cells : Exp.t -> Exp.cell list
(** What to [Exp.prefetch] before {!suite}: the full Figure 7 matrix. *)

val suite : Exp.t -> t
(** Run (or fetch from the context's memo/store) every benchmark under
    every mode and distill the entries. *)

val to_json_string : t -> string
val of_json_string : string -> (t, string) result

val write : t -> file:string -> unit
val read : file:string -> (t, string) result

val render : t -> string
(** The snapshot as a table, for the terminal. *)

(** {2 Regression gating} *)

type verdict =
  | Improved
  | Neutral
  | Regressed
  | Added  (** only in the new snapshot *)
  | Removed  (** only in the baseline *)

type comparison = {
  c_workload : string;
  c_mode : string;
  c_old : entry option;
  c_new : entry option;
  ratio : float;  (** new/old throughput; [nan] unless both present *)
  p99_ratio : float;  (** new/old p99 latency; [nan] unless both present *)
  abort_ratio : float;  (** new/old abort rate; [nan] unless both present *)
  verdict : verdict;
}

val compare_runs : ?threshold:float -> baseline:t -> t -> comparison list
(** Match entries by (workload, mode) and judge three deterministic legs
    against [threshold]: throughput (higher is better), p99 latency and
    abort rate (lower is better). A leg regresses when it moves the wrong
    way by more than [threshold] (throughput below [1 - threshold] of
    the baseline, p99 or abort rate above [1 + threshold] of it; a leg
    moving off zero counts as infinitely far) and improves on the
    mirrored condition. The cell is [Regressed] when any leg regressed,
    else [Improved] when any improved, else [Neutral]. [threshold]
    defaults to 0.2 (±20%). Raises [Invalid_argument] on a threshold
    outside (0, 1). *)

val regressions : comparison list -> comparison list
(** The [Regressed] subset — non-empty means the gate should fail. *)

val render_compare : comparison list -> string
(** One row per cell with both throughputs, the three leg ratios and the
    verdict, plus a closing summary line. *)

(** {2 Sim-series gating} *)

type sim_comparison = {
  s_workload : string;
  s_old : sim_entry option;
  s_new : sim_entry option;
  s_speed_ratio : float;  (** new/old events per second; [nan] unless both *)
  s_alloc_ratio : float;
      (** new/old minor words per event; [nan] unless both, [1.] when the
          baseline allocated nothing *)
  s_verdict : verdict;
}

val compare_sims : ?threshold:float -> baseline:t -> t -> sim_comparison list
(** Match sim entries by workload. A cell regresses when events/sec fell
    below [1 - threshold] of the baseline {b or} the allocation rate rose
    above [1 + threshold] of it; it improves on the mirrored condition.
    The speed leg is wall-clock and so only meaningful against a baseline
    taken on comparable hardware; the allocation leg is deterministic. *)

val sim_regressions : sim_comparison list -> sim_comparison list

val render_compare_sims : sim_comparison list -> string

val minor_words_budget : float
(** Absolute steady-state allocation bound (64 minor-heap words per
    simulated event) that every sim cell must stay under regardless of
    what the baseline recorded. *)

val alloc_violations : t -> sim_entry list
(** Sim entries at or over {!minor_words_budget} — non-empty means the
    bench driver should fail the run. *)

val workload_names : Workload.t list -> string list
(** Names in registry order (a convenience for drivers). *)
