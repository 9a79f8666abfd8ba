(** Ablation studies for the design choices DESIGN.md calls out: policy
    thresholds, waiter cap, PC-tag width, lock timeout, and probe period.
    Each returns a rendered report. *)

val pc_tag_width : ?seed:int -> ?scale:float -> unit -> string
(** Conflicting-PC tag width (§4's space/accuracy trade-off): 6, 8, 12
    bits and full width, with anchor-identification accuracy. *)

val all : ?seed:int -> ?scale:float -> unit -> string
(** Every study, sharing one {!Exp} context: each workload's HTM
    reference cell simulates once for all of them. *)
