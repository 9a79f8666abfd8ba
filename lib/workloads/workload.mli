open Stx_tir
open Stx_sim

(** Common shape of a benchmark: a fresh TIR program plus a setup function
    that builds the shared structures in simulated memory and splits a
    fixed total amount of work across the threads (so a 1-thread run and a
    16-thread run do the same work, making speedups meaningful). *)

type t = {
  name : string;
  source : string;  (** provenance, as in Table 4: STAMP, IntSet, etc. *)
  description : string;
  contention : string;  (** expected class: "low" / "med" / "high" *)
  contention_source : string;  (** the hot structure, as in Table 1 *)
  build : unit -> Ir.program;
      (** a fresh, uninstrumented program (compiled per configuration) *)
  args : scale:float -> Machine.setup_env -> threads:int -> int array array;
      (** build shared state; returns each thread's argument vector for the
          function named ["main"] *)
}

val spec :
  ?instrument:bool ->
  ?anchor_mode:Stx_compiler.Anchors.mode ->
  ?scale:float ->
  ?pc_bits:int ->
  t ->
  Machine.spec
(** Compile a fresh copy of the program (with or without ALPs) and package
    it for {!Machine.run}. [anchor_mode] selects the anchor classification
    ([Naive] instruments every access) and [pc_bits] the conflicting-PC
    tag width, which the machine then truncates to; both default to
    {!Stx_compiler.Pipeline.compile}'s. [scale] multiplies the workload
    size. *)

val scaled : float -> int -> int
(** [scaled scale n] = [max 1 (round (scale * n))]. *)

val split : total:int -> threads:int -> int
(** Per-thread share of [total] units of work (at least 1). *)

(** {2 Request-driven serving}

    A service is the open-loop face of a workload: the same shared
    structures and atomic blocks, but driven one request at a time by the
    serving harness ({!Stx_serve}) through {!Machine.run}'s injector
    instead of a fixed per-thread op budget. *)

type request = { rq_ab : int; rq_args : int array }
(** One synthesized request: invoke atomic block [rq_ab] with
    [rq_args]. *)

type service = {
  sv_bench : t;  (** the underlying workload (program, provenance) *)
  sv_key_range : int;  (** default key universe; keys are [1 .. range] *)
  sv_setup :
    key_range:int ->
    abs:(string -> int) ->
    Machine.setup_env ->
    threads:int ->
    (write:bool -> key:int -> request);
      (** build the shared state and return the request synthesizer;
          [abs] resolves an atomic block's name to its id *)
}

val service_spec :
  ?instrument:bool ->
  ?key_range:int ->
  service ->
  Machine.spec * (write:bool -> key:int -> request) option ref
(** Compile the service's program with a no-op serving entry appended and
    package it for {!Machine.run}. The returned ref is filled with the
    request synthesizer when the machine runs the spec's setup (i.e.
    inside [Machine.run], before any injector poll); [key_range]
    overrides the service's default key universe. *)
