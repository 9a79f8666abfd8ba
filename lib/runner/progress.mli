(** Line-oriented progress for a batch of jobs: one line per completed
    job with done/total, the labels still in flight, and an ETA from the
    mean completion time so far. No terminal control sequences — safe to
    pipe into a log file. Not thread-safe by design: {!Pool.map} runs
    its callbacks under one lock, never two at once. *)

type t

val create :
  ?out:out_channel -> ?now:(unit -> float) -> total:int -> unit -> t
(** [out] defaults to [stderr], keeping stdout clean for report text.
    [now] (default [Unix.gettimeofday]) is the clock — injectable so the
    ETA arithmetic is testable. *)

val job_started : t -> string -> unit
val job_finished : t -> string -> status:string -> unit

val heartbeat : t -> unit
(** A keep-alive line between completions — done/total, ETA, the
    wall-time summary so far and the in-flight labels. Wired to
    {!Pool.map}'s [tick] by [Stx_harness.Exp.prefetch] when stdout is
    not a terminal, so CI logs show life during long batches. *)

val finish : t -> unit
(** The closing line: jobs completed, batch wall time, and (once at
    least one job's start was observed) the {!wall_summary}. *)

val wall_summary : t -> string option
(** Per-job wall-time distribution — p50/p95/max over a
    {!Stx_metrics.Hist} of started-to-finished spans, at millisecond
    resolution. [None] before the first completed job that was also
    observed starting. *)

val eta : t -> float
(** Estimated seconds remaining: mean completion time so far, times the
    jobs left, divided by the jobs currently in flight (they drain in
    parallel). [nan] before the first completion. *)
