(** A fixed-size pool of OCaml 5 domains draining a queue of jobs.

    Results come back as an array in {e input order}, independent of
    completion order, so a parallel sweep is observably identical to a
    sequential one whenever the jobs themselves are deterministic. A job
    that raises yields [Failed] instead of killing the sweep. *)

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
    clamped to [1 .. Array.length thunks]; with [jobs = 1] everything runs
    inline on the calling domain. [on_start]/[on_done] are invoked with
    the job's index from the calling (coordinating) domain only — never
    concurrently. [tick = (period, f)] invokes [f] — also on the
    coordinating domain, so it may share state with the other callbacks
    — roughly every [period] wall-clock seconds while jobs are in
    flight: the progress heartbeat hook. Inline mode ([jobs = 1]) never
    ticks: the calling domain is busy running the jobs themselves. *)
