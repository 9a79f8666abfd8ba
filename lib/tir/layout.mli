(** Program-counter assignment ("binary layout").

    After instrumentation the compiler "knows the real PC of each
    instruction" (§3.4); this module models that step. Every instruction of
    every function receives a distinct PC; PCs advance by 4 per instruction
    to mimic average x86 encoding, so the low 12 bits used by the hardware
    conflicting-PC tag genuinely alias once code regions grow past 4 KB —
    the fidelity the accuracy experiment (Table 3) depends on. *)

type loc = { l_func : string; l_block : int; l_inst : int }

type t

val assign : Ir.program -> t
(** Lay out all functions (sorted by name for determinism). *)

val pc_of_iid : t -> int -> int
(** Raises [Not_found] for an unknown iid. *)

val loc_of_pc : t -> int -> loc option

val truncate : bits:int -> int -> int
(** Keep the low [bits] bits, as the hardware PC tag does. *)

val num_insts : t -> int
