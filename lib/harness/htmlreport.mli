open Stx_core
open Stx_sim

(** The [stx_repro report] renderer: one run distilled into a single
    self-contained HTML file.

    The document inlines all of its CSS and draws every chart as
    hand-rolled SVG — sparklines over the telemetry windows, a per-core
    occupancy heat strip, stacked phase-profile bars — so it references
    no external asset, script, or font and can be archived, diffed, or
    attached to a CI run as one file. Rendering is a pure function of
    the input: the same run produces byte-identical HTML. *)

type input = {
  workload : string;
  mode : Mode.t;
  seed : int;
  scale : float;
  threads : int;
  policy : Stx_policy.t;
  series : Stx_telemetry.Series.t;
  episodes : Stx_telemetry.Episodes.t list;
  stats : Stats.t;
  registry : Stx_metrics.Registry.t;
      (** the run's metrics; the per-atomic-block phase profile is read
          from here *)
  attribution : Stx_trace.Trace.attribution;
      (** trace-derived conflict attribution for the hot-spot tables *)
  ab_name : int -> string;
      (** atomic-block id -> source name, for profile row labels *)
}

val render : input -> string
(** The complete HTML document. Deterministic: equal inputs produce
    byte-identical output (no timestamps, no randomness, no iteration
    over unordered containers). *)
