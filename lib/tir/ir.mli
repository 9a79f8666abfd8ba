(** The transactional IR (TIR).

    A register-based, non-SSA IR with explicit struct-typed address
    computation, standing in for the LLVM IR the paper's compiler pass
    operates on. Programs consist of functions of basic blocks; a set of
    functions is designated as atomic blocks (static transactions), invoked
    through [AtomicCall], which the simulator wraps in the HTM
    begin/commit/retry protocol.

    Every instruction carries a stable unique id ([iid]), assigned at build
    time, so analyses can refer to instructions across the instrumentation
    rewrite. Program counters are assigned by {!Layout} after
    instrumentation ("after the binary code has been generated, the
    compiler knows the real PC of each instruction"). *)

type reg = int

type operand = Reg of reg | Imm of int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
(** Over native (63-bit) ints, wrapping on overflow. [Div] truncates
    toward zero and [Rem] takes the dividend's sign; either traps on a
    zero divisor. [Shl a b] is [a lsl (b land 63)] and [Shr a b] the
    arithmetic [a asr (b land 63)]: the count is taken modulo 64, so a
    count of 63 shifts every bit out (leaving 0, or -1 for a negative
    [Shr]). Comparisons yield 1 or 0. *)

type intr =
  | Rng  (** [Rng [bound]]: uniform int in [0, bound) from the thread's stream *)
  | Thread_id  (** the executing thread's index *)
  | Work  (** [Work [n]]: charge [n] cycles of pure computation *)
  | Print  (** debug print of the argument *)
  | Abort_tx  (** explicit transaction abort (workload-level retry) *)

type op =
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Load of reg * reg  (** dst <- [addr] *)
  | Store of reg * operand  (** [addr] <- value *)
  | Gep of reg * reg * string * int
      (** dst = base + field-offset within named struct *)
  | Idx of reg * reg * int * operand
      (** dst = base + elem_size * index (array addressing) *)
  | Alloc of reg * string  (** heap-allocate one struct *)
  | Alloc_arr of reg * string * operand  (** allocate [n] structs contiguously *)
  | Call of reg option * string * operand list
  | Atomic_call of reg option * int * operand list
      (** run atomic block [ab_id] transactionally *)
  | Intr of reg option * intr * operand list
  | Alp of alp  (** advisory locking point — inserted by the compiler pass *)

and alp = {
  alp_site : int;  (** unique static ALP site id *)
  alp_addr : reg;  (** the pointer register of the following anchor *)
  alp_anchor_iid : int;  (** iid of the anchored load/store *)
}

type inst = { iid : int; op : op }

type term =
  | Jmp of string
  | Br of operand * string * string  (** nonzero -> first target *)
  | Ret of operand option

type block = { blabel : string; mutable insts : inst array; mutable term : term }

type func = {
  fname : string;
  params : string array;  (** parameter names; they occupy regs 0..n-1 *)
  mutable nregs : int;
  mutable blocks : block array;  (** entry is [blocks.(0)] *)
}

type atomic = { ab_id : int; ab_name : string; ab_func : string }

type program = {
  structs : (string, Types.strct) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  mutable atomics : atomic array;
  mutable next_iid : int;
  mutable next_alp_site : int;
}

val create_program : unit -> program
(** Fresh empty program with the built-in [word] struct registered. *)

val add_struct : program -> Types.strct -> unit
val find_struct : program -> string -> Types.strct
val add_func : program -> func -> unit
val find_func : program -> string -> func

val add_atomic : program -> name:string -> func:string -> int
(** Register an atomic block; returns its [ab_id]. *)

val fresh_iid : program -> int
val fresh_alp_site : program -> int

val block_index : func -> string -> int
(** Index of the block labelled [l]; raises [Not_found]. *)

val iter_insts : func -> (int -> int -> inst -> unit) -> unit
(** [iter_insts f k] calls [k block_idx inst_idx inst] in layout order. *)

val is_mem_access : op -> bool
(** True for [Load] and [Store] — the instructions Algorithm 1 considers. *)

val pointer_reg : op -> reg option
(** The pointer operand of a [Load]/[Store], if any. *)

val defined_reg : op -> reg option
(** The register written by the instruction, if any. *)

val callee : op -> string option
(** Direct callee of a [Call]. *)
