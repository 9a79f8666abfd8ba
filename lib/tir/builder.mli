(** Imperative construction of TIR functions.

    A builder owns one function under construction: instructions append to
    the current basic block, labels may be referenced before they are
    defined, and [finish] freezes the function and registers it with the
    program. Registers are named; temporaries are generated on demand.

    Structured-control helpers ([if_], [while_], [for_]) generate the
    block scaffolding so workload code stays readable. *)

type t

val create : Ir.program -> string -> params:string list -> t

val param : t -> string -> Ir.operand
(** Operand for a named parameter. Raises [Invalid_argument] if unknown. *)

val reg : t -> string -> Ir.reg
(** Named local register, created on first use. *)

val rv : t -> string -> Ir.operand
(** [rv t n] is [Reg (reg t n)]. *)

(* instruction emission; [*_to] forms write a named destination register *)

val mov : t -> Ir.reg -> Ir.operand -> unit
val bin : t -> Ir.binop -> Ir.operand -> Ir.operand -> Ir.operand
val bin_to : t -> Ir.reg -> Ir.binop -> Ir.operand -> Ir.operand -> unit
val load : t -> Ir.operand -> Ir.operand
val load_to : t -> Ir.reg -> Ir.operand -> unit
val store : t -> addr:Ir.operand -> Ir.operand -> unit

val gep : t -> Ir.operand -> string -> string -> Ir.operand
(** [gep t base struct_name field_name] — field address. *)

val idx : t -> Ir.operand -> esize:int -> Ir.operand -> Ir.operand
(** [idx t base ~esize i] — address of element [i] of an array whose
    elements are [esize] words. *)

val alloc : t -> string -> Ir.operand
val alloc_arr : t -> string -> Ir.operand -> Ir.operand
val call : t -> string -> Ir.operand list -> unit
val call_v : t -> string -> Ir.operand list -> Ir.operand
val atomic_call : t -> int -> Ir.operand list -> unit
val atomic_call_v : t -> int -> Ir.operand list -> Ir.operand
val rng : t -> Ir.operand -> Ir.operand
(** Uniform int in [0, bound). *)

val thread_id : t -> Ir.operand
val work : t -> Ir.operand -> unit
val print : t -> Ir.operand -> unit
val abort_tx : t -> unit

(* control flow *)

val block : t -> string -> unit
(** Begin a new basic block. The current block must already be terminated. *)

val jmp : t -> string -> unit
val br : t -> Ir.operand -> string -> string -> unit
val ret : t -> Ir.operand option -> unit

val if_ : t -> Ir.operand -> (t -> unit) -> (t -> unit) -> unit
(** [if_ t c then_ else_] — branches join after both arms (arms may also
    return). *)

val when_ : t -> Ir.operand -> (t -> unit) -> unit

val while_ : t -> (t -> Ir.operand) -> (t -> unit) -> unit
(** [while_ t cond body] — loop while [cond] evaluates nonzero. *)

val for_ : t -> from:Ir.operand -> below:Ir.operand -> (t -> Ir.operand -> unit) -> unit
(** [for_ t ~from ~below body] — counted loop; body receives the index. *)

val finish : t -> Ir.func
(** Freeze and register the function. The current block must be
    terminated. *)
