open Stx_tir

(** The whole compile flow in one call: verification, Data Structure
    Analysis, anchor classification, ALP instrumentation, binary layout,
    and PC-indexed unified anchor tables — everything the runtime needs to
    execute a program under Staggered Transactions. *)

type t = {
  prog : Ir.program;  (** the (instrumented) program *)
  dsa : Stx_dsa.Dsa.t;
  anchors : Anchors.t;
  mode : Anchors.mode;  (** anchor-selection mode this compile used *)
  instrumented : bool;  (** whether ALPs were inserted *)
  unified : Unified.table array;  (** indexed by atomic-block id *)
  layout : Layout.t;
  pc_bits : int;
      (** width of the hardware's conflicting-PC tag: the anchor tables
          are indexed by it, and the machine truncates every conflict tag
          it delivers to it *)
  read_only : bool array;
      (** per atomic block: no store (or allocation) is reachable from its
          root, so its transactions never abort anyone else *)
}

val default_pc_bits : int
(** The paper's hardware tag width (§4), 12 bits: Table 2's tag and every
    program compiled without [?pc_bits]. *)

val compile : ?pc_bits:int -> ?mode:Anchors.mode -> ?instrument:bool -> Ir.program -> t
(** Instruments [prog] in place. [pc_bits] defaults to
    {!default_pc_bits}; [mode] defaults to [Dsa_guided]; [instrument:false]
    analyzes without inserting ALPs (the plain-HTM baseline binary). *)

val table_for : t -> ab:int -> Unified.table

val is_read_only : t -> ab:int -> bool

val static_stats : t -> int * int
(** (loads/stores analyzed, anchors instrumented) — the "Static Stats"
    columns of Table 3. *)
