open Stx_sim

(** One simulation's full measurement: the inline [Stats] plus the
    registry the metrics collector built from the same run's event
    stream. This is the unit the runner returns and merges. *)

type t = { stats : Stats.t; metrics : Registry.t }

val simulate :
  ?seed:int ->
  ?htm_policy:Stx_policy.t ->
  ?on_event:(time:int -> Machine.event -> unit) ->
  cfg:Stx_machine.Config.t ->
  mode:Stx_core.Mode.t ->
  Machine.spec ->
  t
(** [Machine.run] with a {!Collect} collector composed onto [on_event]
    (the caller's hook, when given, still sees every event). The
    returned registry always reconciles with the returned stats — that
    invariant is enforced by the test suite via {!Collect.check}. *)

val merge : t -> t -> t
(** [Stats.merge] and [Registry.merge], pairwise. *)
