(** ASCII execution timelines — the Figure 1 diagram, rendered from a
    {!Stx_trace.Trace} of a real run's event stream. Each thread is a
    lane; time flows left to right. Lane backgrounds: ['.'] idle /
    non-transactional, ['='] inside a speculative transaction, ['I']
    inside an irrevocable transaction, ['w'] waiting on an advisory lock,
    ['b'] backing off (or spinning for the global lock) after an abort.
    Markers: ['X'] abort, ['C'] commit, ['L'] advisory-lock acquisition,
    ['T'] advisory-lock wait timeout. *)

val render :
  ?width:int -> ?from_time:int -> ?until_time:int -> Stx_trace.Trace.t -> string
(** Render a full-capture trace (recorded with {!Stx_trace.Trace.handler})
    over the [from_time, until_time] window (defaults to the whole run)
    into [width] (default 100) columns. Events before [from_time] only
    advance the replayed lane state — they paint no marker — and events
    after [until_time] are ignored. *)
