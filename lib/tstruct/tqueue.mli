open Stx_machine
open Stx_tir

(** Linked FIFO queue — intruder's shared task queue. Head and tail words
    sit in one struct, so enqueues and dequeues conflict on stable
    addresses, typically late in long transactions: the paper's precise-
    mode showcase.

    TIR functions: [stx_q_push q v] and [stx_q_pop q] (returns -1 when
    empty). *)

val queue : Types.strct

val register : Ir.program -> unit

val push_fn : string
val pop_fn : string

val setup : Memory.t -> Alloc.t -> init:int list -> int
val to_list : Memory.t -> int -> int list
