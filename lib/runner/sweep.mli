open Stx_sim

(** The experiment engine's front door: execute a batch of simulation
    jobs on a {!Pool} of domains.

    The simulator is deterministic per job, every job builds its own
    compiled program and machine state, and outcomes are returned in
    input order — so a batch at [jobs = 4] is result-identical to the
    same batch at [jobs = 1]. *)

val run_job : Job.t -> Stats.t
(** Resolve the workload, compile it (with ALPs iff the mode uses them),
    and run the simulation with no observer attached. Raises
    [Invalid_argument] on an unknown workload name. *)

type batch = {
  results : (Job.t * Stats.t Pool.outcome) list;
      (** one entry per input job, in input order *)
  executed : int;  (** distinct simulations actually run *)
}

val run_batch : ?jobs:int -> ?progress:bool -> Job.t list -> batch
(** Equal specs are simulated once and their outcome fanned back out.
    [progress] (default off) reports per-job completion lines on stderr
    from the coordinating domain, plus a {!Progress.heartbeat} every
    10 s when stdout is not a terminal (CI logs). Heartbeats only fire
    in parallel mode — see {!Pool.map}'s [tick]. *)
