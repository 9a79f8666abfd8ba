open Stx_tir

type t = {
  prog : Ir.program;
  dsa : Stx_dsa.Dsa.t;
  anchors : Anchors.t;
  mode : Anchors.mode;
  instrumented : bool;
  unified : Unified.table array;
  layout : Layout.t;
  pc_bits : int;
  read_only : bool array;
}

(* an atomic block is read-only when no store is reachable from its root:
   its transactions can be aborted but never abort anyone else *)
let compute_read_only prog =
  let memo = Hashtbl.create 16 in
  let rec writes fname =
    match Hashtbl.find_opt memo fname with
    | Some r -> r
    | None ->
      Hashtbl.add memo fname false (* break recursion cycles optimistically *);
      let f = Ir.find_func prog fname in
      let found = ref false in
      Ir.iter_insts f (fun _ _ inst ->
          match inst.Ir.op with
          | Ir.Store _ | Ir.Alloc _ | Ir.Alloc_arr _ -> found := true
          | _ -> (
            match Ir.callee inst.Ir.op with
            | Some g when Hashtbl.mem prog.Ir.funcs g -> if writes g then found := true
            | _ -> ()));
      Hashtbl.replace memo fname !found;
      !found
  in
  Array.map (fun (a : Ir.atomic) -> not (writes a.Ir.ab_func)) prog.Ir.atomics

let default_pc_bits = 12

let compile ?(pc_bits = default_pc_bits) ?(mode = Anchors.Dsa_guided) ?(instrument = true) prog =
  Verify.program prog;
  let dsa = Stx_dsa.Dsa.analyze prog in
  let anchors = Anchors.build ~insert:instrument prog dsa ~mode in
  let unified = Unified.build prog dsa anchors in
  let layout = Layout.assign prog in
  Array.iter (fun table -> Unified.index_by_pc table layout ~pc_bits) unified;
  {
    prog;
    dsa;
    anchors;
    mode;
    instrumented = instrument;
    unified;
    layout;
    pc_bits;
    read_only = compute_read_only prog;
  }

let table_for t ~ab = t.unified.(ab)

let is_read_only t ~ab = t.read_only.(ab)

let static_stats t =
  (t.anchors.Anchors.loads_stores_analyzed, t.anchors.Anchors.anchors_instrumented)
