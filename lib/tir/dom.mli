(** Control-flow graph and dominator tree for a TIR function.

    Algorithm 1 of the paper classifies loads/stores by a depth-first
    traversal of the dominator tree and by dominance queries between
    instructions; this module provides both. Dominators are computed with
    the iterative algorithm of Cooper, Harvey and Kennedy. *)

type t

val compute : Ir.func -> t

val successors : Ir.func -> int -> int list
(** Successor block indices of block [i]. *)

val reachable : t -> int -> bool

val dominates : t -> int -> int -> bool
(** [dominates t a b]: block [a] dominates block [b] (reflexive). False if
    either block is unreachable. *)

val inst_dominates : t -> int * int -> int * int -> bool
(** [(ba, ia)] dominates [(bb, ib)]: same block and earlier, or the block
    strictly dominates. Irreflexive in the same-instruction case. *)

val preorder : t -> int list
(** Depth-first preorder of the dominator tree (reachable blocks only),
    children visited in block-index order. *)
