open Stx_core

(** The unit of work of the experiment engine: one deterministic
    simulation, fully described by its inputs. Two jobs with equal specs
    produce byte-identical statistics, which is what lets {!Sweep}
    simulate each distinct spec of a batch once. A spec is plain data,
    so structural equality and [Hashtbl.hash] are exact on it. *)

type t = private {
  workload : string;  (** registry name, e.g. ["genome"] *)
  mode : Mode.t;
  threads : int;  (** simulated cores *)
  seed : int;
  scale : float;  (** workload size multiplier *)
  policy : Stx_policy.t;  (** HTM policy bundle the machine runs under *)
}

val make :
  ?policy:Stx_policy.t ->
  workload:string ->
  mode:Mode.t ->
  threads:int ->
  seed:int ->
  scale:float ->
  unit ->
  t
(** [policy] defaults to {!Stx_policy.default}. Raises
    [Invalid_argument] on [threads < 1] or [scale <= 0]. *)

val label : t -> string
(** Short human-readable form, ["genome/Staggered/t16"] — used by
    {!Progress}. Jobs under a non-default policy append its
    {!Stx_policy.label} as a fourth segment. *)
