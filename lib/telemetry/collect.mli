(** Build a {!Series.t} from a run, online or by replay.

    The collector is a fold over the {!Stx_sim.Machine} event stream:
    {!handler} has exactly the shape of [Machine.run]'s [?on_event], so
    the online path is [Machine.run ~on_event:(Collect.handler c) ...]
    (chain it with [Trace.handler] and the metrics collector as usual),
    and the offline path ({!of_trace}) replays a capture through the
    same fold. Because both paths run the identical state machine over
    the identical event stream, the two series are equal bit-for-bit —
    the same online-vs-replay contract the metrics registry keeps.

    Point events (commits, aborts, lock protocol steps, request
    completions) land in the window of their emission timestamp. Attempt
    latencies are spans: a commit or abort at time [t] for an attempt of
    [c] cycles contributes occupancy to every window overlapping
    [[t - c, t)], proportionally to the overlap, so per-window busy and
    tier occupancies sum exactly to the run's totals.

    The serving plane (offered arrivals, queue depth, sojourn times) is
    injector-side state the machine never sees, so it cannot be replayed
    from a trace: the serve harness feeds it in through the [note_*]
    calls, and closed-loop runs simply leave those fields zero. *)

type t

val default_window : int
(** The window width, in cycles, of every series whose width nobody
    chose: 1000. *)

val create : ?window:int -> threads:int -> unit -> t
(** A fresh collector for a [threads]-core run with tumbling windows of
    [window] cycles (default {!default_window}). Raises
    [Invalid_argument] when [window < 1] or [threads < 1]. *)

val window : t -> int
val threads : t -> int

val handler : t -> time:int -> Stx_sim.Machine.event -> unit
(** Fold one event. *)

val note_offered : t -> at:int -> unit
(** Serving plane: one request arrived at simulated time [at]. *)

val note_queue_depth : t -> at:int -> int -> unit
(** Serving plane: the arrival queue was [depth] deep when a dispatch
    decision was taken at [at]; windows keep the peak. *)

val note_sojourn : t -> at:int -> int -> unit
(** Serving plane: a request completing at [at] spent the given number
    of cycles between arrival and completion. *)

val finalize : ?horizon:int -> t -> Series.t
(** Snapshot the series built so far. With [horizon], the series is
    padded with empty windows out to [ceil(horizon / window)] so a quiet
    tail is visible rather than truncated. The collector stays usable;
    later events extend it. *)

val of_trace : ?window:int -> ?horizon:int -> Stx_trace.Trace.t -> Series.t
(** Replay a capture through the same fold: equal to the online series
    of the same run by construction (serving-plane fields excepted, as
    above). Thread count is taken from the trace. *)
