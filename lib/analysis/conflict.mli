open Stx_tir
open Stx_dsa

(** The static conflict graph over atomic blocks.

    Each atomic block's may-read / may-write summary is lifted from its
    root function's graph plane into a common whole-program plane: a
    depth-first walk from the program's entry functions composes the
    DSA's call-site node mappings (exactly as {!Stx_compiler.Unified}
    does when building anchor tables), translating each block's footprint
    at every [Atomic_call] site it is reached through. Code executed
    outside any atomic block contributes a separate "outside" footprint.

    A directed edge [src -> dst] means a running instance of [src] can
    cause a hardware transaction of block [dst] to abort under the
    chosen conflict-resolution policy. For the default requester-wins
    protocol:

    - a transactional {e write} of [src] dooms any transaction that read
      {e or} wrote the node;
    - a transactional {e read} of [src] dooms any transaction that wrote
      the node;
    - a non-transactional (outside) {e write} dooms readers and writers,
      while outside reads doom nobody.

    Under responder-wins the roles invert ([dst] self-dooms when its own
    request hits [src]'s established footprint) and under timestamp
    either direction can abort [dst] depending on age — but on
    transactional pairs all three formulas compute the {e same} witness
    set (intersection commutes; read/read pairs never conflict), so the
    matrix is resolution-invariant and trace validation stays sound for
    every policy. The outside row is policy-independent outright:
    nontransactional stores win under every resolution.

    Self-edges ([src = dst]) are real: two threads in the same block
    conflict on shared nodes. *)

type t

type source = Ab of int | Outside

val compute :
  ?resolution:Stx_policy.Resolution.t -> Ir.program -> Dsa.t -> Summary.t -> t
(** [resolution] defaults to [Requester_wins] (the paper's hardware). *)

val n_abs : t -> int

val resolution : t -> Stx_policy.Resolution.t
(** The conflict-resolution policy the graph was computed under. *)

val may_doom : t -> src:source -> dst:int -> bool

val witness : t -> src:source -> dst:int -> int list
(** Whole-program node ids both footprints meet on (empty when no
    edge). *)

val edges : t -> (source * int) list
(** Every predicted edge, [Ab] sources first, then [Outside]. *)

val footprint : t -> ab:int -> int * int
(** [(may-read, may-write)] node counts in the whole-program plane. *)

val outside_footprint : t -> int * int

val read_fields : t -> ab:int -> (int * int) list
(** The field-granular may-read footprint of a block: sorted
    [(global node id, field)] pairs in the whole-program plane. Accesses
    to a node that is collapsed {e after} whole-program unification fold
    onto field 0, even when a callee plane still saw it typed. The node
    ids projected from these pairs are exactly the ids {!footprint}
    counts. *)

val write_fields : t -> ab:int -> (int * int) list
(** Field-granular may-write footprint, mirroring {!read_fields}. *)

val outside_write_fields : t -> (int * int) list
(** Field-granular may-write footprint of code outside every atomic
    block. *)

val node_of_global : t -> int -> Dsnode.t option
(** A witness {!Dsnode.t} for a whole-program node id seen during the
    walk (its type/shape drives the line-placement model); [None] for an
    id the walk never produced. *)

val to_global : t -> ab:int -> int -> int list
(** The whole-program node ids a block-local node id (a [ue_node] of the
    block's unified table) was translated to — one per call path the
    block is reached through. Empty for an id the walk never saw. *)

val prone : t -> ab:int -> store:bool -> int -> bool
(** Whether an access of the block-local node can be doomed by anyone:
    for a load, some block or outside code may write it; for a store,
    additionally some block may (transactionally) read it. *)

val never_written : t -> ab:int -> int -> bool
(** No block and no outside code ever writes the block-local node — an
    advisory lock guarding it serializes accesses to read-only data. *)
