open Stx_sim

(** The event-stream checker: recounts a run's {!Stx_sim.Machine} events
    and reconciles them against its {!Stx_sim.Stats}, so the two
    accounting paths (counters bumped inline vs. events emitted inline)
    cannot drift apart silently. It runs online on a live run's
    [on_event] hook and keeps no capture; {!Trace.check} replays a full
    capture through it. *)

type t

val create : threads:int -> t

val handler : t -> time:int -> Machine.event -> unit
(** Shaped like [Machine.run]'s [?on_event]. An event naming a thread
    outside [0, threads) is reported and otherwise skipped. *)

val finish : t -> Stats.t -> (unit, string list) result
(** Call once, after the last event. Verifies (a) the protocol shape, as
    {!Lifecycle} folds it — per-thread clocks non-decreasing, every begin
    closed by exactly one commit or abort, no advisory lock held at a
    commit or abort, at most one per attempt, acquires matched by
    releases, backoffs bracketed and outside attempts, every request done
    after its dispatch — and (b) that the recount reproduces [stats]:
    commits, aborts by reason, the software tier's counts and validation
    cycles, irrevocable entries, lock acquires/timeouts, ALP executions
    and lock attempts, useful, wasted and backoff cycles and the
    per-block tallies, with [tx_mode_cycles] between useful+wasted+backoff
    and [thread_cycles]. [Error] holds one message per violation. *)
