type loc = { l_func : string; l_block : int; l_inst : int }

type t = {
  pc_of : (int, int) Hashtbl.t; (* iid -> pc *)
  at_pc : (int, loc * int) Hashtbl.t; (* pc -> loc, iid *)
  mutable count : int;
}

let base_pc = 0x1000
let stride = 4

let assign (p : Ir.program) =
  let t = { pc_of = Hashtbl.create 256; at_pc = Hashtbl.create 256; count = 0 } in
  let pc = ref base_pc in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) p.Ir.funcs [] in
  let names = List.sort compare names in
  List.iter
    (fun name ->
      let f = Ir.find_func p name in
      Ir.iter_insts f (fun bi ii inst ->
          Hashtbl.replace t.pc_of inst.Ir.iid !pc;
          Hashtbl.replace t.at_pc !pc
            ({ l_func = name; l_block = bi; l_inst = ii }, inst.Ir.iid);
          pc := !pc + stride;
          t.count <- t.count + 1))
    names;
  t

let pc_of_iid t iid = Hashtbl.find t.pc_of iid

let loc_of_pc t pc = Option.map fst (Hashtbl.find_opt t.at_pc pc)

let truncate ~bits pc = pc land ((1 lsl bits) - 1)

let num_insts t = t.count
