(** What [stx_run], [stx_serve] and [stx_repro] share on the command
    line: the common flags, each parsed and validated in one place, the
    one way a usage error ends the process, the output writers more than
    one of them prints, and the domain-pool map. Their closed-loop runs
    go through [Stx_harness.Exp.observe]. *)

open Cmdliner

val fail : string -> 'a
(** Print the line on stderr and exit 1. Every usage error ends here. *)

val parsed : string -> (string -> ('a, string) result) -> string -> 'a
(** [parsed flag parse v] is [parse v]'s value, or fails with
    ["bad --FLAG V: MSG"]. *)

val positive : string -> int -> int
(** [positive flag n] is [n], or fails with ["bad --FLAG N: must be
    positive"] when [n < 1]. *)

val seed : int Term.t
(** [--seed], default 1. *)

val scale : float Term.t
(** [--scale], default 1.0; positive and finite. *)

val threads : int Term.t
(** [--threads]/[-t], default 16; positive. *)

val jobs : int Term.t
(** [--jobs]/[-j], default the recommended domain count. *)

val mode : Stx_core.Mode.t Term.t
(** [--mode]/[-m], default [Staggered]. *)

val policy : Stx_policy.t Term.t
(** The HTM policy bundle: [--policy], [--capacity] and [--fallback]. *)

val bench : string -> Stx_workloads.Workload.t
(** A [--bench] lookup in {!Stx_workloads.Registry}; an unknown name
    fails. *)

val fail_file : string -> string -> string -> 'a
(** [fail_file what file msg] fails with ["WHAT FILE: MSG"], dropping
    the leading ["FILE: "] a [Sys_error] message carries. *)

val write : string -> (out_channel -> unit) -> unit
(** Open the file (truncating) and run the writer on it. Every file the
    executables write goes through here: a path that cannot be written
    fails with ["cannot write FILE: REASON"]. *)

val write_file : string -> string -> unit
(** {!write} one string. *)

val write_metrics : string -> Stx_metrics.Registry.t -> unit
(** Write the registry, stamped with the process's GC counters, to the
    file as the versioned JSON snapshot, and print its [metrics] line. *)

val write_telemetry :
  meta:(string * string) list -> string -> Stx_telemetry.Series.t -> unit
(** Write the series to the file: CSV when its name ends in [.csv],
    JSON-lines otherwise. *)

val print_episodes : Stx_telemetry.Series.t -> unit
(** One [episode] line per detected episode. *)

val pool_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [f] over the list on a pool of [jobs] domains, in input order, so
    what is printed from the results is the same at any [jobs]; a cell
    that raises fails the call. *)
