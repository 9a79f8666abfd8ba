open Stx_sim

(** The bracket fold: one per-thread state machine over the
    {!Stx_sim.Machine} event stream, shared by every observer that needs
    to know what a thread is inside of.

    Five kinds of bracket open and close on one thread:
    - an {e attempt}: [Tx_begin] or [Stm_begin], closed by the matching
      commit or abort;
    - a {e lock wait} inside an attempt: [Lock_waiting], closed by
      [Lock_acquired], [Lock_timeout] or a hardware abort (a waiter
      doomed while queued);
    - a {e lock hold} inside an attempt: [Lock_acquired], closed by
      [Lock_released];
    - a {e backoff}: [Backoff_start] to [Backoff_end], between attempts;
    - a {e request}: [Req_dispatch] to [Req_done] (serving runs).

    {!step} hands every closed bracket to the [on_span] callback, and
    every protocol violation — a clock running backwards, a close with
    nothing open, a second open, an advisory lock held across a commit
    or abort or taken inside a software attempt, an ALP or lock event
    outside an attempt — to [on_error] as one message. {!Check}
    prints those messages; the Chrome export and the metrics collector
    only read the spans.

    The fold allocates nothing per event: per-thread state is flat
    [int] and [bool] fields, and the span handed to [on_span] is one
    record the fold reuses. *)

type kind = Attempt | Wait | Hold | Backoff | Request

type span = private {
  mutable kind : kind;
  mutable tid : int;
  mutable start : int;  (** the opening event's timestamp *)
  mutable stop : int;  (** the closing event's timestamp *)
  mutable ab : int;
      (** [Attempt]: the block its begin named; [Backoff]: the block of
          the thread's most recent attempt (0 before any) *)
  mutable attempt : int;  (** [Attempt]: the begin's attempt number *)
  mutable probe : bool;  (** [Attempt]: the begin's probe flag *)
  mutable acquires : int;  (** [Attempt]: advisory-lock acquisitions *)
  mutable first_acquire : int;
      (** [Attempt]: time of the first acquisition, [-1] without one *)
  mutable waited : int;
      (** [Attempt]: cycles of the wait spans that closed inside it *)
  mutable lock : int;  (** [Wait], [Hold]: the advisory lock *)
  mutable line : int;  (** [Hold]: the cache line it guards *)
}
(** Valid only during the [on_span] call: the fold overwrites it for the
    next bracket. *)

type t

val create :
  ?on_error:(string -> unit) -> on_span:(span -> Machine.event -> unit) -> unit -> t
(** [on_span s ev] receives each closed bracket with the event that
    closed it, so the closing event's fields — outcome, cycles, set
    sizes — are read from [ev]. [on_error] defaults to ignoring
    violations. Per-thread state grows with the highest thread id
    seen. *)

val step : t -> time:int -> Machine.event -> unit
(** Fold one event. Spans close before [step] returns: on a hardware
    abort the open wait span comes first, then the attempt span.
    @raise Invalid_argument on a negative thread id. *)

val finish : t -> unit
(** Report, in thread order, every attempt, backoff and request still
    open at the end of the stream. *)
