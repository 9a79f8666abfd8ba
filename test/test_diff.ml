open Stx_tir
open Stx_machine
open Stx_core
open Stx_sim

(* Differential testing of the interpreter: random programs over a
   handful of registers and a small private scratch array are executed
   both by the simulated machine and by a direct OCaml reference
   evaluator; the full final state must agree. The same program is also
   run wrapped in an atomic block, checking that transactional
   write-buffering is invisible to single-threaded semantics.

   The programs reach every part of the machine's lowered code: register
   and immediate operands on either side of every binop (immediates
   negative and past 2^31, which live in the constant pool), shifts by
   any count, division by a non-zero register, Gep and Idx addressing,
   an if/else and a counted loop (jump targets), and a call whose result
   lands in a register (frame push and pop). *)

let nregs = 6
let nslots = 12

type src = R of int | I of int (* a register, or an immediate *)

type rop =
  | Const of int * int (* reg, value *)
  | Bin of Ir.binop * int * src * src (* dst, a, b *)
  | Divide of Ir.binop * int * src * int (* Div or Rem: dst, a, reg made odd *)
  | Store of int * int (* slot, src reg *)
  | Load of int * int (* dst reg, slot *)
  | Gep of int * int * int (* dst, base reg, field of [triple] *)
  | Idx of int * int * int * src (* dst, base reg, element size, index *)
  | Select of int * int * int * int (* dst, cond: if c then a + b else a - b *)
  | Loop of int * int * int (* n, dst, step: n times, dst <- (dst xor i) + step *)
  | Call of int * src * src (* dst <- mix a b *)

let binops =
  [|
    Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Shr;
    Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge;
  |]

let triple = Types.make "triple" [ ("a", Types.Scalar); ("b", Types.Scalar); ("c", Types.Scalar) ]
let fields = [| "a"; "b"; "c" |]

(* the called function's body, and the reference's copy of it *)
let mix_key = 0x5bd1e995
let mix a b = (a lxor mix_key) + (b * 7)

let gen_reg = QCheck.Gen.int_bound (nregs - 1)

(* small values (shift counts of every residue, negatives), values past
   2^31 either way, and the extremes *)
let gen_imm =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-70) 70);
        (2, map (fun x -> x * 1_000_003) (int_range (-5_000_000) 5_000_000));
        ( 1,
          oneofl
            [ 1 lsl 31; -(1 lsl 31) - 1; 3_000_000_000; -(1 lsl 40); max_int; min_int ] );
      ])

let gen_src = QCheck.Gen.(frequency [ (3, map (fun r -> R r) gen_reg); (2, map (fun n -> I n) gen_imm) ])

let gen_rop =
  QCheck.Gen.(
    frequency
      [
        (2, map2 (fun r v -> Const (r, v)) gen_reg gen_imm);
        ( 6,
          map3
            (fun op d (a, b) -> Bin (binops.(op), d, a, b))
            (int_bound (Array.length binops - 1))
            gen_reg (pair gen_src gen_src) );
        ( 1,
          map3
            (fun op d (a, c) -> Divide ((if op then Ir.Div else Ir.Rem), d, a, c))
            bool gen_reg (pair gen_src gen_reg) );
        (2, map2 (fun s r -> Store (s, r)) (int_bound (nslots - 1)) gen_reg);
        (2, map2 (fun d s -> Load (d, s)) gen_reg (int_bound (nslots - 1)));
        (1, map3 (fun d a f -> Gep (d, a, f)) gen_reg gen_reg (int_bound 2));
        ( 1,
          map3
            (fun (d, a) esize i -> Idx (d, a, esize, i))
            (pair gen_reg gen_reg) (int_range 1 8) gen_src );
        ( 1,
          map3 (fun (d, c) a b -> Select (d, c, a, b)) (pair gen_reg gen_reg) gen_reg gen_reg );
        (1, map3 (fun n d a -> Loop (n, d, a)) (int_bound 5) gen_reg gen_reg);
        (1, map3 (fun d a b -> Call (d, a, b)) gen_reg gen_src gen_src);
      ])

let gen_prog = QCheck.Gen.(list_size (int_range 1 60) gen_rop)

(* reference semantics; values stay within native int like the machine *)
let eval op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> a / b
  | Ir.Rem -> a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl (b land 63)
  | Ir.Shr -> a asr (b land 63)
  | Ir.Eq -> if a = b then 1 else 0
  | Ir.Ne -> if a <> b then 1 else 0
  | Ir.Lt -> if a < b then 1 else 0
  | Ir.Le -> if a <= b then 1 else 0
  | Ir.Gt -> if a > b then 1 else 0
  | Ir.Ge -> if a >= b then 1 else 0

let reference ops =
  let regs = Array.make nregs 0 in
  let slots = Array.make nslots 0 in
  let v = function R r -> regs.(r) | I n -> n in
  List.iter
    (fun rop ->
      match rop with
      | Const (r, n) -> regs.(r) <- n
      | Bin (op, d, a, b) -> regs.(d) <- eval op (v a) (v b)
      | Divide (op, d, a, c) -> regs.(d) <- eval op (v a) (regs.(c) lor 1)
      | Store (s, r) -> slots.(s) <- regs.(r)
      | Load (d, s) -> regs.(d) <- slots.(s)
      | Gep (d, a, f) -> regs.(d) <- regs.(a) + f
      | Idx (d, a, esize, i) -> regs.(d) <- regs.(a) + (esize * v i)
      | Select (d, c, a, b) ->
        regs.(d) <- (if regs.(c) <> 0 then regs.(a) + regs.(b) else regs.(a) - regs.(b))
      | Loop (n, d, a) ->
        for i = 0 to n - 1 do
          regs.(d) <- (regs.(d) lxor i) + regs.(a)
        done
      | Call (d, a, b) -> regs.(d) <- mix (v a) (v b))
    ops;
  (regs, slots)

(* build a TIR function executing [ops] on (scratch, out) and dumping the
   final registers to out..out+nregs-1 *)
let build_body b ops =
  let reg i = Builder.reg b (Printf.sprintf "r%d" i) in
  let src = function R r -> Ir.Reg (reg r) | I n -> Ir.Imm n in
  let slot s = Builder.idx b (Builder.param b "scratch") ~esize:1 (Ir.Imm s) in
  for i = 0 to nregs - 1 do
    Builder.mov b (reg i) (Ir.Imm 0)
  done;
  List.iter
    (fun rop ->
      match rop with
      | Const (r, n) -> Builder.mov b (reg r) (Ir.Imm n)
      | Bin (op, d, a, bb) -> Builder.bin_to b (reg d) op (src a) (src bb)
      | Divide (op, d, a, c) ->
        let odd = Builder.bin b Ir.Or (Ir.Reg (reg c)) (Ir.Imm 1) in
        Builder.bin_to b (reg d) op (src a) odd
      | Store (s, r) -> Builder.store b ~addr:(slot s) (Ir.Reg (reg r))
      | Load (d, s) -> Builder.load_to b (reg d) (slot s)
      | Gep (d, a, f) -> Builder.mov b (reg d) (Builder.gep b (Ir.Reg (reg a)) "triple" fields.(f))
      | Idx (d, a, esize, i) -> Builder.mov b (reg d) (Builder.idx b (Ir.Reg (reg a)) ~esize (src i))
      | Select (d, c, a, bb) ->
        Builder.if_ b
          (Ir.Reg (reg c))
          (fun b -> Builder.bin_to b (reg d) Ir.Add (Ir.Reg (reg a)) (Ir.Reg (reg bb)))
          (fun b -> Builder.bin_to b (reg d) Ir.Sub (Ir.Reg (reg a)) (Ir.Reg (reg bb)))
      | Loop (n, d, a) ->
        Builder.for_ b ~from:(Ir.Imm 0) ~below:(Ir.Imm n) (fun b i ->
            let x = Builder.bin b Ir.Xor (Ir.Reg (reg d)) i in
            Builder.bin_to b (reg d) Ir.Add x (Ir.Reg (reg a)))
      | Call (d, a, bb) -> Builder.mov b (reg d) (Builder.call_v b "mix" [ src a; src bb ]))
    ops;
  for i = 0 to nregs - 1 do
    Builder.store b
      ~addr:(Builder.idx b (Builder.param b "out") ~esize:1 (Ir.Imm i))
      (Ir.Reg (reg i))
  done

let build_mix p =
  let b = Builder.create p "mix" ~params:[ "x"; "y" ] in
  let x = Builder.bin b Ir.Xor (Builder.param b "x") (Ir.Imm mix_key) in
  let y = Builder.bin b Ir.Mul (Builder.param b "y") (Ir.Imm 7) in
  Builder.ret b (Some (Builder.bin b Ir.Add x y));
  ignore (Builder.finish b)

let run_machine ~transactional ops =
  let p = Ir.create_program () in
  Ir.add_struct p triple;
  build_mix p;
  let b = Builder.create p "body" ~params:[ "scratch"; "out" ] in
  build_body b ops;
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab = Ir.add_atomic p ~name:"body" ~func:"body" in
  let bm = Builder.create p "main" ~params:[ "scratch"; "out" ] in
  if transactional then
    Builder.atomic_call bm ab [ Builder.param bm "scratch"; Builder.param bm "out" ]
  else Builder.call bm "body" [ Builder.param bm "scratch"; Builder.param bm "out" ];
  Builder.ret bm None;
  ignore (Builder.finish bm);
  let compiled = Stx_compiler.Pipeline.compile p in
  let memo = ref (0, 0, None) in
  let spec =
    {
      Machine.compiled;
      Machine.thread_main = "main";
      Machine.thread_args =
        (fun env ~threads ->
          let scratch = Alloc.alloc_shared env.Machine.alloc nslots in
          let out = Alloc.alloc_shared env.Machine.alloc nregs in
          memo := (scratch, out, Some env.Machine.memory);
          Array.make threads [| scratch; out |]);
    }
  in
  ignore
    (Machine.run ~seed:1
       ~cfg:(Config.with_cores 1 Config.default)
       ~mode:Mode.Staggered_hw spec);
  let scratch, out, mem = !memo in
  let mem = Option.get mem in
  ( Array.init nregs (fun i -> Memory.load mem (out + i)),
    Array.init nslots (fun i -> Memory.load mem (scratch + i)) )

let agree ~transactional ops =
  let ref_regs, ref_slots = reference ops in
  let m_regs, m_slots = run_machine ~transactional ops in
  ref_regs = m_regs && ref_slots = m_slots

let qcheck_plain =
  QCheck.Test.make ~name:"random programs: machine = reference (plain)" ~count:60
    (QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen_prog)
    (fun ops -> agree ~transactional:false ops)

let qcheck_tx =
  QCheck.Test.make ~name:"random programs: machine = reference (transactional)"
    ~count:60
    (QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen_prog)
    (fun ops -> agree ~transactional:true ops)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [ q qcheck_plain; q qcheck_tx ]
