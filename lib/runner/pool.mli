(** A fixed-size pool of OCaml 5 domains sharing one counter of jobs.

    Results come back as an array in {e input order}, independent of
    completion order, so a parallel batch is observably identical to a
    sequential one whenever the jobs themselves are deterministic. A job
    that raises yields [Failed] instead of killing the batch. *)

type 'a outcome =
  | Done of 'a
  | Failed of string  (** the job raised; [Printexc.to_string] of it *)

val map :
  ?jobs:int ->
  ?on_start:(int -> unit) ->
  ?on_done:(int -> 'a outcome -> unit) ->
  ?tick:float * (unit -> unit) ->
  (unit -> 'a) array ->
  'a outcome array
(** [map ~jobs thunks] runs every thunk and returns their outcomes in
    input order. [jobs] (default [Domain.recommended_domain_count ()]) is
    clamped to [1 .. Array.length thunks]: the calling domain and
    [jobs - 1] spawned ones take job indices from one atomic counter, and
    with [jobs = 1] everything runs inline on the calling domain.
    [on_start]/[on_done] are invoked with the job's index on the domain
    that runs it. [tick = (period, f)] invokes [f] roughly every [period]
    wall-clock seconds while jobs are in flight: the progress heartbeat
    hook. All three callbacks run under one lock, so they never run at
    the same time and may share unsynchronised state. Inline mode
    ([jobs = 1]) never ticks: the calling domain is busy running the
    jobs themselves. *)
