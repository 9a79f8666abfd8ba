open Stx_sim

(** Structured, cycle-stamped recording of one simulation's event stream.

    A trace is the ground truth a run leaves behind: every protocol event
    {!Stx_sim.Machine} emits, in emission order, with the emitting thread's
    local clock. Three consumers build on it — the Chrome [trace_event]
    exporter (one lane per core, loadable in [chrome://tracing] or
    Perfetto), the abort-attribution report behind [stx_repro hotspots],
    and {!check}, an invariant checker that replays the stream and
    reconciles it against the run's {!Stx_sim.Stats} so the two accounting
    paths (counters bumped inline vs. events emitted inline) cannot drift
    apart silently.

    Events are globally ordered by emission, which interleaves threads in
    scheduler order; within one thread timestamps are non-decreasing, but
    a later event of another thread may carry an earlier local clock. *)

type t

val create : ?capacity:int -> threads:int -> unit -> t
(** A fresh recorder for a [threads]-core run. Without [capacity] the
    trace captures every event (full-capture mode — required by {!check});
    with [capacity] it keeps the most recent [capacity] events in a ring,
    counting the overwritten ones in {!dropped}. *)

val handler : t -> time:int -> Machine.event -> unit
(** Record one event. [Trace.handler t] has exactly the shape of
    [Machine.run]'s [?on_event], so wiring a run up is
    [Machine.run ~on_event:(Trace.handler t) ...]. *)

val length : t -> int
(** Events currently held (at most [capacity] in ring mode). *)

val dropped : t -> int
(** Events overwritten by the ring; always 0 in full-capture mode. *)

val threads : t -> int

val iter : t -> (time:int -> Machine.event -> unit) -> unit
(** Oldest to newest. *)

val events : t -> (int * Machine.event) list
(** The retained [(time, event)] stream, oldest first. *)

(** {2 Invariant checking} *)

val check : t -> Stats.t -> (unit, string list) result
(** Replay the stream and verify (a) the HTM protocol shape, as
    {!Lifecycle} folds it — per-thread clocks non-decreasing, every
    begin closed by exactly one commit or abort, no advisory lock held
    when a commit or abort is emitted, at most one advisory lock per
    attempt, every acquire matched by a release, backoff intervals
    properly bracketed and outside attempts — and (b) that independently recomputing the counters from events
    reproduces [stats]: commits, aborts by reason, irrevocable entries,
    lock acquires/timeouts, ALP executions and lock attempts, useful,
    wasted and backoff cycles, the per-atomic-block tallies, and that
    [tx_mode_cycles] is bounded below by useful+wasted+backoff and above
    by [thread_cycles]. A trace with [dropped > 0] fails immediately:
    a truncated stream cannot be reconciled. [Error] carries one message
    per violated invariant. *)

(** {2 Abort attribution} *)

type attribution = {
  agg_matrix : int array array;
      (** [agg_matrix.(aggressor).(victim)] counts conflict aborts the
          aggressor core inflicted on the victim core *)
  unattributed : int;  (** conflict aborts without a usable aggressor id *)
  by_line : (int * int) list;
      (** conflicting cache line -> conflict aborts, descending *)
  by_pc : (int * int) list;
      (** conflicting PC tag -> conflict aborts, descending *)
  by_ab : (int * int) list;
      (** atomic block -> conflict aborts, descending *)
  conflict_aborts : int;  (** total conflict aborts in the trace *)
}

val abort_attribution : t -> attribution
(** Who aborted whom, where: the raw material of [stx_repro hotspots]. *)

val conflict_lines : t -> (int * int) list
(** [by_line] alone: conflicting cache line -> conflict aborts,
    descending, without the threads × threads aggressor matrix. *)

(** {2 Chrome trace_event export} *)

val to_chrome_json : t -> string
(** The retained stream as a Chrome [trace_event] JSON document (the
    [{"traceEvents": [...]}] object form): one lane per core ([tid]),
    complete ["X"] spans for transaction attempts (named after the atomic
    block, with outcome/attempt/probe args), advisory-lock holds, lock
    waits and backoff intervals, and instant ["i"] events for every abort
    (reason, victim, aggressor, conflicting line/PC), irrevocable entry
    and executed ALP. Timestamps map one simulated cycle to one
    microsecond. Load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

(** {2 Raw event codec}

    The Chrome export is for human eyes; this line-oriented text form
    round-trips, so a capture written by one run ([stx_run --raw-trace])
    can be replayed later by another process ([stx_repro lint
    --validate-trace]). *)

exception Codec_error of string

val write_events : ?meta:(string * string) list -> t -> out_channel -> unit
(** Write the retained stream with a versioned header and optional
    [meta] key/value pairs (e.g. workload, mode, seed — single-line
    values only). *)

val read_events : file:string -> t * (string * string) list
(** Parse a {!write_events} capture back into a full-capture trace plus
    its metadata. The original ring-drop count is preserved, so {!check}
    still refuses a truncated capture. Every field must be non-negative
    and every thread and aggressor id below the header's thread count,
    so a replay may index per-thread arrays with them; block ids are the
    caller's to bound (see {!Stx_sim.Machine.ab_of}).
    @raise Codec_error on malformed input or an unsupported version.
    @raise Sys_error when the file cannot be read. *)
