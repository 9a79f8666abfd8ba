(** Ablation studies for the design choices DESIGN.md calls out: policy
    thresholds, waiter cap, PC-tag width, lock timeout, and probe period.
    Each returns a rendered report. *)

val pc_tag_width : ?seed:int -> ?scale:float -> unit -> string
(** Conflicting-PC tag width (§4's space/accuracy trade-off): 6, 8, 12
    bits and full width, with anchor-identification accuracy. *)

val lock_timeout : ?seed:int -> ?scale:float -> unit -> string
(** Advisory-lock acquire timeout (§2's progress guarantee). *)

val probe_period : ?seed:int -> ?scale:float -> unit -> string
(** The speculation-probe duty cycle of the runtime extension. *)

val all : ?seed:int -> ?scale:float -> unit -> string
(** Every study, sharing one {!Exp} context: each workload's HTM
    reference cell simulates once for all of them. *)
