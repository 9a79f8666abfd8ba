(* A domain scenario built on the public API: a bank with a set of
   accounts, transfer transactions between random accounts, and an audit
   transaction that sums every balance (a long read-only scan that plain
   HTM keeps aborting). The invariants — total money is conserved, and
   every audit saw the full total — are checked at the end (exit 1 when
   either fails), and the run shows how Staggered Transactions treat the
   two very different transaction shapes. *)

open Stx_tir
open Stx_machine
open Stx_core
open Stx_sim

let accounts = 64
let transfers_per_thread = 150
let audit_every = 25 (* one audit per this many transfers *)

let build_program () =
  let p = Ir.create_program () in
  (* transfer(bank, from, to, amount) *)
  let b = Builder.create p "transfer" ~params:[ "bank"; "src"; "dst"; "amount" ] in
  let src_slot = Builder.idx b (Builder.param b "bank") ~esize:1 (Builder.param b "src") in
  let dst_slot = Builder.idx b (Builder.param b "bank") ~esize:1 (Builder.param b "dst") in
  let sv = Builder.load b src_slot in
  (* refuse to overdraw: the transfer simply does nothing *)
  Builder.when_ b
    (Builder.bin b Ir.Lt sv (Builder.param b "amount"))
    (fun b -> Builder.ret b (Some (Ir.Imm 0)));
  Builder.store b ~addr:src_slot (Builder.bin b Ir.Sub sv (Builder.param b "amount"));
  let dv = Builder.load b dst_slot in
  Builder.store b ~addr:dst_slot (Builder.bin b Ir.Add dv (Builder.param b "amount"));
  Builder.ret b (Some (Ir.Imm 1));
  ignore (Builder.finish b);
  let ab_transfer = Ir.add_atomic p ~name:"transfer" ~func:"transfer" in
  (* audit(bank): sum all balances in one transaction *)
  let b = Builder.create p "audit" ~params:[ "bank" ] in
  let sum = Builder.reg b "sum" in
  Builder.mov b sum (Ir.Imm 0);
  Builder.for_ b ~from:(Ir.Imm 0) ~below:(Ir.Imm accounts) (fun b i ->
      let v = Builder.load b (Builder.idx b (Builder.param b "bank") ~esize:1 i) in
      Builder.bin_to b sum Ir.Add (Ir.Reg sum) v);
  Builder.ret b (Some (Ir.Reg sum));
  ignore (Builder.finish b);
  let ab_audit = Ir.add_atomic p ~name:"audit" ~func:"audit" in
  (* worker: transfers with periodic audits; records the last audit total *)
  let b = Builder.create p "main" ~params:[ "bank"; "n"; "audit_slot" ] in
  Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "n") (fun b i ->
      let src = Builder.rng b (Ir.Imm accounts) in
      let dst = Builder.rng b (Ir.Imm accounts) in
      let amount = Builder.bin b Ir.Add (Builder.rng b (Ir.Imm 20)) (Ir.Imm 1) in
      ignore
        (Builder.atomic_call_v b ab_transfer [ Builder.param b "bank"; src; dst; amount ]);
      Builder.when_ b
        (Builder.bin b Ir.Eq
           (Builder.bin b Ir.Rem i (Ir.Imm audit_every))
           (Ir.Imm 0))
        (fun b ->
          let total = Builder.atomic_call_v b ab_audit [ Builder.param b "bank" ] in
          Builder.store b ~addr:(Builder.param b "audit_slot") total));
  Builder.ret b None;
  ignore (Builder.finish b);
  p

let () =
  let threads = 8 in
  let initial_balance = 100 in
  let run mode =
    let compiled = Stx_compiler.Pipeline.compile (build_program ()) in
    let state = ref (0, [||]) in
    let memo_mem = ref None in
    let spec =
      {
        Machine.compiled;
        Machine.thread_main = "main";
        Machine.thread_args =
          (fun env ~threads ->
            memo_mem := Some env.Machine.memory;
            let bank = Alloc.alloc_shared env.Machine.alloc accounts in
            for i = 0 to accounts - 1 do
              Memory.store env.Machine.memory (bank + i) initial_balance
            done;
            (* one result slot per thread, each on its own cache line *)
            let slots =
              Array.init threads (fun _ -> Alloc.alloc_shared env.Machine.alloc 8)
            in
            state := (bank, slots);
            Array.init threads (fun t ->
                [| bank; transfers_per_thread; slots.(t) |]))
      }
    in
    let cfg = Config.with_cores threads Config.default in
    let stats = Machine.run ~seed:21 ~cfg ~mode spec in
    let mem = Option.get !memo_mem in
    let bank, slots = !state in
    let total = ref 0 in
    for i = 0 to accounts - 1 do
      total := !total + Memory.load mem (bank + i)
    done;
    let audits = Array.map (Memory.load mem) slots in
    (stats, !total, audits)
  in
  print_endline "Bank scenario: transfers + long read-only audits";
  print_endline "------------------------------------------------";
  let violated = ref false in
  let verdict ok =
    if ok then "OK"
    else begin
      violated := true;
      "VIOLATED!"
    end
  in
  List.iter
    (fun mode ->
      let stats, total, audits = run mode in
      Printf.printf "\n%-12s %d commits, %d aborts, %d cycles\n"
        (Mode.to_string mode) stats.Stats.commits stats.Stats.aborts
        stats.Stats.total_cycles;
      Printf.printf "  money conserved: %d = %d  %s\n" total
        (accounts * initial_balance)
        (verdict (total = accounts * initial_balance));
      let consistent = Array.for_all (fun a -> a = 0 || a = total) audits in
      Printf.printf "  audits consistent (each saw the full total): %s\n"
        (verdict consistent))
    [ Mode.Baseline; Mode.Staggered_hw ];
  if !violated then exit 1
