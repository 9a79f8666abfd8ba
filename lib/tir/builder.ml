open Ir

type pending_block = {
  pb_label : string;
  mutable pb_insts : inst list; (* reversed *)
  mutable pb_term : term option;
}

type t = {
  prog : program;
  name : string;
  params : string array;
  regs : (string, reg) Hashtbl.t;
  mutable nregs : int;
  mutable done_blocks : pending_block list; (* reversed *)
  mutable cur : pending_block;
  mutable fresh_label : int;
  mutable fresh_reg : int;
}

let create prog name ~params =
  let regs = Hashtbl.create 16 in
  List.iteri (fun i p -> Hashtbl.add regs p i) params;
  {
    prog;
    name;
    params = Array.of_list params;
    regs;
    nregs = List.length params;
    done_blocks = [];
    cur = { pb_label = "entry"; pb_insts = []; pb_term = None };
    fresh_label = 0;
    fresh_reg = 0;
  }

let param t p =
  match Hashtbl.find_opt t.regs p with
  | Some r when r < Array.length t.params -> Reg r
  | _ -> invalid_arg (Printf.sprintf "Builder.param: %s has no param %s" t.name p)

let reg t n =
  match Hashtbl.find_opt t.regs n with
  | Some r -> r
  | None ->
    let r = t.nregs in
    t.nregs <- r + 1;
    Hashtbl.add t.regs n r;
    r

let rv t n = Reg (reg t n)

let fresh t =
  let n = Printf.sprintf "%%t%d" t.fresh_reg in
  t.fresh_reg <- t.fresh_reg + 1;
  reg t n

let fresh_label t prefix =
  let l = Printf.sprintf "%s.%d" prefix t.fresh_label in
  t.fresh_label <- t.fresh_label + 1;
  l

let emit t op =
  if t.cur.pb_term <> None then
    invalid_arg
      (Printf.sprintf "Builder: emitting into terminated block %s in %s"
         t.cur.pb_label t.name);
  t.cur.pb_insts <- { iid = fresh_iid t.prog; op } :: t.cur.pb_insts

(* materialize an operand as a register (addresses must live in registers) *)
let as_reg t = function
  | Reg r -> r
  | Imm _ as v ->
    let r = fresh t in
    emit t (Mov (r, v));
    r

let mov t d v = emit t (Mov (d, v))

let bin_to t d op a b = emit t (Bin (op, d, a, b))

let bin t op a b =
  let d = fresh t in
  bin_to t d op a b;
  Reg d

let load_to t d a = emit t (Load (d, as_reg t a))

let load t a =
  let d = fresh t in
  load_to t d a;
  Reg d

let store t ~addr v = emit t (Store (as_reg t addr, v))

let gep t base sname fname =
  let s = find_struct t.prog sname in
  let fi = Types.field_index s fname in
  let d = fresh t in
  emit t (Gep (d, as_reg t base, sname, fi));
  Reg d

let idx t base ~esize i =
  let d = fresh t in
  emit t (Idx (d, as_reg t base, esize, i));
  Reg d

let alloc t sname =
  ignore (find_struct t.prog sname);
  let d = fresh t in
  emit t (Alloc (d, sname));
  Reg d

let alloc_arr t sname n =
  ignore (find_struct t.prog sname);
  let d = fresh t in
  emit t (Alloc_arr (d, sname, n));
  Reg d

let call t f args = emit t (Call (None, f, args))

let call_v t f args =
  let d = fresh t in
  emit t (Call (Some d, f, args));
  Reg d

let atomic_call t ab args = emit t (Atomic_call (None, ab, args))

let atomic_call_v t ab args =
  let d = fresh t in
  emit t (Atomic_call (Some d, ab, args));
  Reg d

let rng t bound =
  let d = fresh t in
  emit t (Intr (Some d, Rng, [ bound ]));
  Reg d

let thread_id t =
  let d = fresh t in
  emit t (Intr (Some d, Thread_id, []));
  Reg d

let work t n = emit t (Intr (None, Work, [ n ]))

let print t v = emit t (Intr (None, Print, [ v ]))

let abort_tx t = emit t (Intr (None, Abort_tx, []))

let close_block t =
  t.done_blocks <- t.cur :: t.done_blocks

let block t label =
  if t.cur.pb_term = None then
    invalid_arg
      (Printf.sprintf "Builder.block: previous block %s of %s not terminated"
         t.cur.pb_label t.name);
  close_block t;
  t.cur <- { pb_label = label; pb_insts = []; pb_term = None }

let terminate t term =
  if t.cur.pb_term <> None then
    invalid_arg
      (Printf.sprintf "Builder: double terminator in block %s of %s"
         t.cur.pb_label t.name);
  t.cur.pb_term <- Some term

let jmp t l = terminate t (Jmp l)
let br t c l1 l2 = terminate t (Br (c, l1, l2))
let ret t v = terminate t (Ret v)

let terminated t = t.cur.pb_term <> None

let if_ t c then_ else_ =
  let lt = fresh_label t "then"
  and le = fresh_label t "else"
  and lj = fresh_label t "join" in
  br t c lt le;
  block t lt;
  then_ t;
  if not (terminated t) then jmp t lj;
  block t le;
  else_ t;
  if not (terminated t) then jmp t lj;
  block t lj

let when_ t c body = if_ t c body (fun _ -> ())

let while_ t cond body =
  let lh = fresh_label t "while.head"
  and lb = fresh_label t "while.body"
  and lx = fresh_label t "while.exit" in
  jmp t lh;
  block t lh;
  let c = cond t in
  br t c lb lx;
  block t lb;
  body t;
  if not (terminated t) then jmp t lh;
  block t lx

let for_ t ~from ~below body =
  let i = fresh t in
  mov t i from;
  while_ t
    (fun t -> bin t Lt (Reg i) below)
    (fun t ->
      body t (Reg i);
      bin_to t i Add (Reg i) (Imm 1))

let finish t =
  if t.cur.pb_term = None then
    invalid_arg
      (Printf.sprintf "Builder.finish: block %s of %s not terminated"
         t.cur.pb_label t.name);
  close_block t;
  let blocks =
    List.rev_map
      (fun pb ->
        {
          blabel = pb.pb_label;
          insts = Array.of_list (List.rev pb.pb_insts);
          term = (match pb.pb_term with Some tm -> tm | None -> assert false);
        })
      t.done_blocks
  in
  let f =
    {
      fname = t.name;
      params = t.params;
      nregs = t.nregs;
      blocks = Array.of_list blocks;
    }
  in
  add_func t.prog f;
  f
