open Stx_tir
open Stx_machine
open Stx_core
open Stx_sim

(* A shared-counter workload: every thread atomically increments the same
   counter [iters] times. Maximum contention, trivially checkable result. *)

let counter_ty = Types.make "counter" [ ("value", Types.Scalar) ]

let build_counter_prog ~tx_work =
  let p = Ir.create_program () in
  Ir.add_struct p counter_ty;
  let b = Builder.create p "add_one" ~params:[ "counter" ] in
  let v = Builder.load b (Builder.gep b (Builder.param b "counter") "counter" "value") in
  Builder.work b (Ir.Imm tx_work);
  Builder.store b
    ~addr:(Builder.gep b (Builder.param b "counter") "counter" "value")
    (Builder.bin b Ir.Add v (Ir.Imm 1));
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab = Ir.add_atomic p ~name:"add_one" ~func:"add_one" in
  let b = Builder.create p "main" ~params:[ "counter"; "iters" ] in
  Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "iters") (fun b _ ->
      Builder.atomic_call b ab [ Builder.param b "counter" ]);
  Builder.ret b None;
  ignore (Builder.finish b);
  p

let counter_addr = ref 0

let counter_spec ?(instrument = true) ?(tx_work = 50) ~iters () =
  let p = build_counter_prog ~tx_work in
  let compiled = Stx_compiler.Pipeline.compile ~instrument p in
  {
    Machine.compiled;
    Machine.thread_main = "main";
    Machine.thread_args =
      (fun env ~threads ->
        let addr = Alloc.alloc_shared env.Machine.alloc 1 in
        counter_addr := addr;
        Memory.store env.Machine.memory addr 0;
        Array.make threads [| addr; iters |]);
  }

let run_counter ?(threads = 4) ?(iters = 20) ?(seed = 7) ~mode () =
  let cfg = Config.with_cores threads Config.default in
  let final = ref 0 in
  let spec = counter_spec ~iters () in
  let stats = Machine.run ~seed ~cfg ~mode spec in
  (* re-run setup is not possible; read the counter through a fresh run's
     memory instead we capture the address used during the run *)
  ignore final;
  stats

(* run and also return the final counter value *)
let run_counter_value ?(threads = 4) ?(iters = 20) ?(seed = 7) ~mode () =
  let cfg = Config.with_cores threads Config.default in
  let memo = ref None in
  let spec0 = counter_spec ~iters () in
  let spec =
    {
      spec0 with
      Machine.thread_args =
        (fun env ~threads ->
          let r = spec0.Machine.thread_args env ~threads in
          memo := Some env.Machine.memory;
          r);
    }
  in
  let stats = Machine.run ~seed ~cfg ~mode spec in
  let v = Memory.load (Option.get !memo) !counter_addr in
  (stats, v)

let test_single_thread_correct () =
  let stats, v = run_counter_value ~threads:1 ~iters:50 ~mode:Mode.Baseline () in
  Alcotest.(check int) "final value" 50 v;
  Alcotest.(check int) "commits" 50 stats.Stats.commits;
  Alcotest.(check int) "no aborts alone" 0 stats.Stats.aborts

let test_multithread_correct_all_modes () =
  List.iter
    (fun mode ->
      let stats, v = run_counter_value ~threads:4 ~iters:25 ~mode () in
      Alcotest.(check int)
        (Mode.to_string mode ^ " final value")
        100 v;
      Alcotest.(check int) (Mode.to_string mode ^ " commits") 100 stats.Stats.commits)
    Mode.all

let test_contention_causes_aborts () =
  let stats, _ = run_counter_value ~threads:8 ~iters:25 ~mode:Mode.Baseline () in
  Alcotest.(check bool) "aborts happen" true (stats.Stats.aborts > 0);
  Alcotest.(check bool) "wasted cycles accrue" true (stats.Stats.wasted_cycles > 0)

let test_staggered_reduces_aborts () =
  let base, _ = run_counter_value ~threads:8 ~iters:50 ~mode:Mode.Baseline () in
  let stag, _ = run_counter_value ~threads:8 ~iters:50 ~mode:Mode.Staggered_hw () in
  Alcotest.(check bool)
    (Printf.sprintf "aborts reduced (%d -> %d)" base.Stats.aborts stag.Stats.aborts)
    true
    (stag.Stats.aborts < base.Stats.aborts);
  Alcotest.(check bool) "locks were used" true (stag.Stats.lock_acquires > 0)

let test_determinism () =
  let run () =
    let s, v = run_counter_value ~threads:6 ~iters:30 ~seed:42 ~mode:Mode.Staggered_hw () in
    (s.Stats.commits, s.Stats.aborts, s.Stats.total_cycles, s.Stats.insts, v)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_seed_changes_schedule () =
  let run seed =
    let s, _ = run_counter_value ~threads:6 ~iters:30 ~seed ~mode:Mode.Baseline () in
    s.Stats.total_cycles
  in
  (* different seeds give different backoff draws; cycles usually differ *)
  let distinct =
    List.sort_uniq compare [ run 1; run 2; run 3; run 4 ] |> List.length
  in
  Alcotest.(check bool) "some variation across seeds" true (distinct > 1)

let test_events_emitted () =
  let cfg = Config.with_cores 4 Config.default in
  let begins = ref 0 and commits = ref 0 and aborts = ref 0 in
  let spec = counter_spec ~iters:10 () in
  let _ =
    Machine.run ~seed:3 ~cfg ~mode:Mode.Staggered_hw
      ~on_event:(fun ~time:_ ev ->
        match ev with
        | Machine.Tx_begin _ -> incr begins
        | Machine.Tx_commit _ -> incr commits
        | Machine.Tx_abort _ -> incr aborts
        | _ -> ())
      spec
  in
  Alcotest.(check int) "commits observed" 40 !commits;
  Alcotest.(check bool) "begins >= commits" true (!begins >= !commits)

(* The machine delivers each conflict tag truncated to the width the
   program was compiled for; at 62 bits that is the full PC, and every
   PC lies at or above the layout's 0x1000 base. *)
let test_conflict_tags_use_compiled_width () =
  let w = Option.get (Stx_workloads.Registry.find "list-hi") in
  let cfg = Config.with_cores 4 Config.default in
  let tags bits =
    let acc = ref [] in
    ignore
      (Machine.run ~seed:7 ~cfg ~mode:Mode.Staggered_hw
         ~on_event:(fun ~time:_ ev ->
           match ev with
           | Machine.Tx_abort { kind = Machine.Conflict; conf_pc = Some pc; _ } ->
             acc := pc :: !acc
           | _ -> ())
         (Stx_workloads.Workload.spec ~scale:0.05 ~pc_bits:bits w));
    !acc
  in
  List.iter
    (fun bits ->
      let ts = tags bits in
      Alcotest.(check bool) (Printf.sprintf "%d bits: conflict tags seen" bits) true
        (ts <> []);
      Alcotest.(check bool)
        (Printf.sprintf "%d bits: every tag below 2^%d" bits bits)
        true
        (List.for_all (fun pc -> pc >= 0 && pc < 1 lsl bits) ts))
    [ 6; 8; 12 ];
  Alcotest.(check bool) "62 bits: the full PC is delivered" true
    (List.exists (fun pc -> pc >= 0x1000) (tags 62))

let test_irrevocable_fallback () =
  (* with 1 retry allowed, contended txs fall back to the global lock fast *)
  let cfg = Config.with_cores 8 Config.default in
  let htm_policy =
    Stx_policy.make ~fallback:(Stx_policy.Fallback.Polite { retries = Some 1 }) ()
  in
  let spec = counter_spec ~iters:20 () in
  let memo = ref None in
  let spec =
    {
      spec with
      Machine.thread_args =
        (fun env ~threads ->
          let r = spec.Machine.thread_args env ~threads in
          memo := Some env.Machine.memory;
          r);
    }
  in
  let stats = Machine.run ~seed:5 ~htm_policy ~cfg ~mode:Mode.Baseline spec in
  Alcotest.(check bool) "irrevocable entries" true (stats.Stats.irrevocable_entries > 0);
  Alcotest.(check int) "still correct" 160 (Memory.load (Option.get !memo) !counter_addr);
  Alcotest.(check int) "all committed" 160 stats.Stats.commits

let test_tx_stats_accounting () =
  let stats, _ = run_counter_value ~threads:4 ~iters:20 ~mode:Mode.Baseline () in
  Alcotest.(check bool) "tx cycles positive" true (stats.Stats.tx_mode_cycles > 0);
  Alcotest.(check bool) "useful cycles positive" true (stats.Stats.useful_cycles > 0);
  Alcotest.(check bool) "total cycles >= useful" true
    (stats.Stats.total_cycles > 0);
  Alcotest.(check bool) "insts counted" true (stats.Stats.insts > 0);
  Alcotest.(check bool) "tx insts subset" true
    (stats.Stats.tx_insts <= stats.Stats.insts)

(* A transaction that aborts explicitly while the counter is even, after
   storing +1; every speculative attempt therefore rolls back and aborts
   again, and only a non-speculative attempt gets through. Returns the
   spec and a reader of the counter's final value. *)
let flaky_spec () =
  let p = Ir.create_program () in
  Ir.add_struct p counter_ty;
  let b = Builder.create p "flaky" ~params:[ "counter" ] in
  let v = Builder.load b (Builder.gep b (Builder.param b "counter") "counter" "value") in
  (* abort while the counter is even; the increment below makes it odd *)
  Builder.when_ b
    (Builder.bin b Ir.Eq (Builder.bin b Ir.Rem v (Ir.Imm 2)) (Ir.Imm 0))
    (fun b ->
      Builder.store b
        ~addr:(Builder.gep b (Builder.param b "counter") "counter" "value")
        (Builder.bin b Ir.Add v (Ir.Imm 1));
      Builder.abort_tx b);
  Builder.store b
    ~addr:(Builder.gep b (Builder.param b "counter") "counter" "value")
    (Builder.bin b Ir.Add v (Ir.Imm 1));
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab = Ir.add_atomic p ~name:"flaky" ~func:"flaky" in
  let b = Builder.create p "main" ~params:[ "counter" ] in
  Builder.atomic_call b ab [ Builder.param b "counter" ];
  Builder.ret b None;
  ignore (Builder.finish b);
  let compiled = Stx_compiler.Pipeline.compile p in
  let memo = ref None in
  let addr_ref = ref 0 in
  let spec =
    {
      Machine.compiled;
      Machine.thread_main = "main";
      Machine.thread_args =
        (fun env ~threads ->
          let addr = Alloc.alloc_shared env.Machine.alloc 1 in
          addr_ref := addr;
          memo := Some env.Machine.memory;
          Array.make threads [| addr |]);
    }
  in
  (spec, fun () -> Memory.load (Option.get !memo) !addr_ref)

let test_explicit_abort_retries () =
  (* a tx that aborts explicitly on its first attempt, then succeeds *)
  let spec, value = flaky_spec () in
  let cfg = Config.with_cores 1 Config.default in
  let stats = Machine.run ~cfg ~mode:Mode.Baseline spec in
  (* every speculative attempt stores +1 then aborts; the store is rolled
     back each time, so the parity never changes and the tx retries until
     the irrevocable fallback (whose nt-stores are immediate) finishes it *)
  Alcotest.(check int) "explicit abort every speculative attempt"
    (Stx_policy.Fallback.retry_budget Stx_policy.default.Stx_policy.fallback)
    stats.Stats.explicit_aborts;
  Alcotest.(check int) "one commit" 1 stats.Stats.commits;
  Alcotest.(check int) "went irrevocable" 1 stats.Stats.irrevocable_entries;
  (* irrevocable: the even branch stores +1 (visible), Abort_tx is a no-op
     outside speculation, then the second store writes v+1 again *)
  Alcotest.(check int) "rollbacks left no trace" 1 (value ())

let test_uninstrumented_faster_single_thread () =
  let cfg = Config.with_cores 1 Config.default in
  let run instrument =
    let spec = counter_spec ~instrument ~iters:200 () in
    (Machine.run ~seed:1 ~cfg ~mode:(if instrument then Mode.Staggered_hw else Mode.Baseline) spec)
      .Stats.total_cycles
  in
  let plain = run false and instr = run true in
  (* inactive ALPs cost a little, but less than 10% here *)
  Alcotest.(check bool)
    (Printf.sprintf "overhead small (%d vs %d)" plain instr)
    true
    (instr >= plain && float_of_int instr < 1.10 *. float_of_int plain)

let test_lazy_htm_counter_correct () =
  (* the whole protocol stack on the lazy variant: still serializable *)
  let cfg = { (Config.with_cores 6 Config.default) with Config.lazy_htm = true } in
  List.iter
    (fun mode ->
      let memo = ref None in
      let spec0 = counter_spec ~iters:20 () in
      let spec =
        {
          spec0 with
          Machine.thread_args =
            (fun env ~threads ->
              let r = spec0.Machine.thread_args env ~threads in
              memo := Some env.Machine.memory;
              r);
        }
      in
      let stats = Machine.run ~seed:9 ~cfg ~mode spec in
      Alcotest.(check int)
        (Mode.to_string mode ^ " lazy correct")
        120
        (Memory.load (Option.get !memo) !counter_addr);
      Alcotest.(check int) (Mode.to_string mode ^ " commits") 120 stats.Stats.commits)
    [ Mode.Baseline; Mode.Staggered_hw ]

let qcheck_counter_correct_any_schedule =
  QCheck.Test.make ~name:"counter correct for any seed/threads/mode" ~count:25
    QCheck.(triple (int_range 1 8) (int_range 1 100) (int_range 0 4))
    (fun (threads, seed, mode_i) ->
      let mode = List.nth Mode.all mode_i in
      let iters = 10 in
      let stats, v = run_counter_value ~threads ~iters ~seed ~mode () in
      v = threads * iters && stats.Stats.commits = threads * iters)

let run_trap_prog build_body =
  let p = Ir.create_program () in
  Ir.add_struct p counter_ty;
  let b = Builder.create p "main" ~params:[ "arg" ] in
  build_body b;
  Builder.ret b None;
  ignore (Builder.finish b);
  let compiled = Stx_compiler.Pipeline.compile p in
  let spec =
    {
      Machine.compiled;
      Machine.thread_main = "main";
      Machine.thread_args = (fun _ ~threads -> Array.make threads [| 0 |]);
    }
  in
  Machine.run ~cfg:(Config.with_cores 1 Config.default) ~mode:Mode.Baseline spec

let expect_trap name build_body =
  Alcotest.(check bool) name true
    (try
       ignore (run_trap_prog build_body);
       false
     with Machine.Sim_error _ -> true)

let test_traps () =
  expect_trap "null dereference" (fun b ->
      ignore (Builder.load b (Ir.Imm 0)));
  expect_trap "division by zero" (fun b ->
      ignore (Builder.bin b Ir.Div (Ir.Imm 1) (Ir.Imm 0)));
  expect_trap "remainder by zero" (fun b ->
      ignore (Builder.bin b Ir.Rem (Ir.Imm 1) (Ir.Imm 0)));
  expect_trap "rng zero bound" (fun b -> ignore (Builder.rng b (Ir.Imm 0)))

let test_max_steps_backstop () =
  let p = Ir.create_program () in
  let b = Builder.create p "main" ~params:[] in
  Builder.while_ b (fun _ -> Ir.Imm 1) (fun b -> Builder.work b (Ir.Imm 1));
  Builder.ret b None;
  ignore (Builder.finish b);
  let compiled = Stx_compiler.Pipeline.compile p in
  let spec =
    {
      Machine.compiled;
      Machine.thread_main = "main";
      Machine.thread_args = (fun _ ~threads -> Array.make threads [||]);
    }
  in
  Alcotest.(check bool) "runaway trapped" true
    (try
       ignore
         (Machine.run ~max_steps:5000
            ~cfg:(Config.with_cores 1 Config.default)
            ~mode:Mode.Baseline spec);
       false
     with Machine.Sim_error _ -> true)

(* ---------------------------------------------------------------- *)
(* scheduler edge cases: thread-local ops run ahead of the tree and are
   rewound on a doom, global-lock waiters sleep until the release. The
   expected figures were captured from the one-step-per-instruction
   loop. *)

let compile_spec p ~args =
  {
    Machine.compiled = Stx_compiler.Pipeline.compile ~instrument:false p;
    Machine.thread_main = "main";
    Machine.thread_args = args;
  }

let sim_error f = try ignore (f ()); None with Machine.Sim_error msg -> Some msg

(* every thread spins in a loop of thread-local ops, inside a
   transaction ([in_tx]) or outside one *)
let test_local_loop_hits_max_steps () =
  List.iter
    (fun in_tx ->
      let p = Ir.create_program () in
      let b = Builder.create p "spin" ~params:[] in
      Builder.while_ b (fun _ -> Ir.Imm 1) (fun b -> ignore (Builder.bin b Ir.Add (Ir.Imm 1) (Ir.Imm 2)));
      Builder.ret b None;
      ignore (Builder.finish b);
      let ab = Ir.add_atomic p ~name:"spin" ~func:"spin" in
      let b = Builder.create p "main" ~params:[] in
      if in_tx then Builder.atomic_call b ab [] else Builder.call b "spin" [];
      Builder.ret b None;
      ignore (Builder.finish b);
      let spec = compile_spec p ~args:(fun _ ~threads -> Array.make threads [||]) in
      Alcotest.(check (option string))
        (Printf.sprintf "runaway trapped (in_tx %b)" in_tx)
        (Some "simulation exceeded 5000 steps")
        (sim_error (fun () ->
             Machine.run ~max_steps:5000 ~cfg:(Config.with_cores 2 Config.default)
               ~mode:Mode.Baseline spec)))
    [ false; true ]

(* Thread 0 reads [x] in a transaction, then works through a short run
   of long thread-local ops before dividing by the value it read (0 on
   the first attempt). Thread 1 stores 1 to [x] after [delay] cycles,
   dooming the attempt mid-run: the retry divides by 1. The run and the
   division fit in one run-ahead, so the doom must both rewind the run
   and keep the division from trapping. With a long delay the division
   by zero is reached and traps. *)
let div_spec ~delay =
  let p = Ir.create_program () in
  let b = Builder.create p "victim" ~params:[ "x" ] in
  let v = Builder.load b (Builder.param b "x") in
  Builder.for_ b ~from:(Ir.Imm 0) ~below:(Ir.Imm 4) (fun b _ -> Builder.work b (Ir.Imm 250));
  ignore (Builder.bin b Ir.Div (Ir.Imm 100) v);
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab = Ir.add_atomic p ~name:"victim" ~func:"victim" in
  let b = Builder.create p "main" ~params:[ "x"; "role" ] in
  Builder.if_ b
    (Builder.bin b Ir.Eq (Builder.param b "role") (Ir.Imm 0))
    (fun b -> Builder.atomic_call b ab [ Builder.param b "x" ])
    (fun b ->
      Builder.work b (Ir.Imm delay);
      Builder.store b ~addr:(Builder.param b "x") (Ir.Imm 1));
  Builder.ret b None;
  ignore (Builder.finish b);
  compile_spec p ~args:(fun env ~threads ->
      let x = Alloc.alloc_shared env.Machine.alloc 1 in
      Memory.store env.Machine.memory x 0;
      Array.init threads (fun t -> [| x; t |]))

let test_doom_preempts_div_by_zero () =
  let run delay =
    Machine.run ~cfg:(Config.with_cores 2 Config.default) ~mode:Mode.Baseline
      (div_spec ~delay)
  in
  let s = run 300 in
  Alcotest.(check (list int)) "doomed once, then committed"
    [ 1; 1; 1 ]
    [ s.Stats.commits; s.Stats.aborts; s.Stats.conflict_aborts ];
  Alcotest.(check (list int)) "cycles as in the one-step loop" [ 534; 1677; 1683; 25 ]
    [ s.Stats.wasted_cycles; s.Stats.tx_mode_cycles; s.Stats.total_cycles; s.Stats.insts ];
  Alcotest.(check (option string)) "reached division traps" (Some "division by zero")
    (sim_error (fun () -> run 100_000))

(* Thread 0 takes the global lock (a capacity abort under bounded:1:1
   sends the transaction straight there) and holds it through a long
   irrevocable run; the others queue behind it. Threads 1 and 2 follow
   identical schedules, so they recheck on the same cycles and the lower
   core goes first; thread 3 rechecks out of phase with them. Thread 0
   releases on the very cycle threads 1 and 2 recheck, and a higher core
   steps after a lower one within a cycle, so thread 1 takes the lock on
   the release cycle. *)
let lock_queue_spec () =
  let p = Ir.create_program () in
  let b = Builder.create p "hold" ~params:[ "base"; "n" ] in
  ignore (Builder.load b (Builder.param b "base"));
  ignore (Builder.load b (Builder.idx b (Builder.param b "base") ~esize:8 (Ir.Imm 1)));
  Builder.work b (Builder.param b "n");
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab = Ir.add_atomic p ~name:"hold" ~func:"hold" in
  let b = Builder.create p "main" ~params:[ "base"; "pre"; "n" ] in
  Builder.work b (Builder.param b "pre");
  Builder.atomic_call b ab [ Builder.param b "base"; Builder.param b "n" ];
  Builder.ret b None;
  ignore (Builder.finish b);
  compile_spec p ~args:(fun env ~threads ->
      Array.init threads (fun t ->
          let base = Alloc.alloc_shared env.Machine.alloc 16 in
          match t with
          | 0 -> [| base; 0; 3010 |]
          | 1 | 2 -> [| base; 40; 500 |]
          | _ -> [| base; 47; 500 |]))

let test_global_lock_waiters_resume_in_order () =
  let order = ref [] in
  let on_event ~time = function
    | Machine.Tx_irrevocable { tid; _ } -> order := (time, tid) :: !order
    | _ -> ()
  in
  let htm_policy =
    Stx_policy.make ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 1; write_lines = 1 }) ()
  in
  let s =
    Machine.run ~htm_policy ~on_event ~cfg:(Config.with_cores 4 Config.default)
      ~mode:Mode.Baseline (lock_queue_spec ())
  in
  Alcotest.(check (list (pair int int))) "irrevocable entries in (cycle, core) order"
    [ (426, 0); (3466, 1); (4006, 2); (4553, 3) ]
    (List.rev !order);
  Alcotest.(check (list int)) "lock_wait, tx_mode and total cycles" [ 10700; 16886; 5069 ]
    [ s.Stats.lock_wait_cycles; s.Stats.tx_mode_cycles; s.Stats.total_cycles ]

(* The global lock word is the first shared allocation of a run (one
   line at [words_per_line]); holding it from set-up means no thread
   ever releases it, so a transaction sent to it waits forever. *)
let test_unreleased_global_lock_traps () =
  let htm_policy =
    Stx_policy.make ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 1; write_lines = 1 }) ()
  in
  let spec = lock_queue_spec () in
  let spec =
    {
      spec with
      Machine.thread_args =
        (fun env ~threads ->
          Memory.store env.Machine.memory Config.default.Config.words_per_line 1;
          spec.Machine.thread_args env ~threads);
    }
  in
  Alcotest.(check (option string)) "waiters trap"
    (Some "simulation exceeded 100000 steps: 4 threads wait on a global lock never released")
    (sim_error (fun () ->
         Machine.run ~htm_policy ~max_steps:100_000 ~cfg:(Config.with_cores 4 Config.default)
           ~mode:Mode.Baseline spec))

(* Stats.merge: sum counters, union frequency tables, max makespans *)

let stats_fixture ~threads ~commits ~total ~line ~ab_commits =
  let s = Stats.create ~threads in
  s.Stats.commits <- commits;
  s.Stats.aborts <- commits / 2;
  s.Stats.useful_cycles <- 10 * commits;
  s.Stats.total_cycles <- total;
  Stx_util.Stat.bump s.Stats.conf_addr_freq line;
  Stx_util.Stat.bump s.Stats.conf_pc_freq (line land 0xfff);
  let ab = Stats.ab s 0 in
  ab.Stats.ab_commits <- ab_commits;
  s

let test_merge_sums_counters () =
  let a = stats_fixture ~threads:4 ~commits:10 ~total:1000 ~line:7 ~ab_commits:3 in
  let b = stats_fixture ~threads:2 ~commits:6 ~total:900 ~line:9 ~ab_commits:2 in
  let m = Stats.merge a b in
  Alcotest.(check int) "commits sum" 16 m.Stats.commits;
  Alcotest.(check int) "aborts sum" 8 m.Stats.aborts;
  Alcotest.(check int) "useful sum" 160 m.Stats.useful_cycles;
  Alcotest.(check int) "makespan is max" 1000 m.Stats.total_cycles;
  Alcotest.(check int) "threads is max" 4 m.Stats.threads

let test_merge_unions_freq_tables () =
  let a = stats_fixture ~threads:1 ~commits:2 ~total:10 ~line:7 ~ab_commits:1 in
  Stx_util.Stat.bump a.Stats.conf_addr_freq 7;
  let b = stats_fixture ~threads:1 ~commits:2 ~total:10 ~line:7 ~ab_commits:1 in
  let m = Stats.merge a b in
  (* line 7: twice in a, once in b *)
  Alcotest.(check (option int)) "addr counts sum" (Some 3)
    (Hashtbl.find_opt m.Stats.conf_addr_freq 7);
  Alcotest.(check (option int)) "pc counts sum" (Some 2)
    (Hashtbl.find_opt m.Stats.conf_pc_freq 7)

let test_merge_per_ab_and_neutrality () =
  let a = stats_fixture ~threads:2 ~commits:4 ~total:50 ~line:1 ~ab_commits:4 in
  let b = stats_fixture ~threads:2 ~commits:2 ~total:40 ~line:2 ~ab_commits:2 in
  let m = Stats.merge a b in
  Alcotest.(check int) "ab commits sum" 6 (Stats.ab m 0).Stats.ab_commits;
  (* merging with a fresh (all-zero) stats value changes nothing *)
  let z = Stats.merge a (Stats.create ~threads:1) in
  Alcotest.(check int) "zero is neutral: commits" a.Stats.commits z.Stats.commits;
  Alcotest.(check int) "zero is neutral: makespan" a.Stats.total_cycles
    z.Stats.total_cycles;
  Alcotest.(check (option int)) "zero is neutral: freq" (Some 1)
    (Hashtbl.find_opt z.Stats.conf_addr_freq 1);
  (* inputs are not mutated *)
  Alcotest.(check int) "left input untouched" 4 a.Stats.commits

(* [Stats.ab] serves every lookup of [merge] and of block ids the online
   checker does not cache: on a key already present it must not allocate *)
let test_stats_bookkeeping_allocates_nothing () =
  let s = Stats.create ~threads:1 in
  ignore (Stats.ab s 0);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    (Stats.ab s 0).Stats.ab_commits <- 1
  done;
  let ab = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "ab: %.0f words over 10^6 calls" ab)
    true (ab < 64.)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "merge sums counters, maxes makespan" `Quick
      test_merge_sums_counters;
    Alcotest.test_case "merge unions frequency tables" `Quick
      test_merge_unions_freq_tables;
    Alcotest.test_case "stats bookkeeping allocates nothing" `Quick
      test_stats_bookkeeping_allocates_nothing;
    Alcotest.test_case "merge per-ab and neutrality" `Quick
      test_merge_per_ab_and_neutrality;
    Alcotest.test_case "single thread correct" `Quick test_single_thread_correct;
    Alcotest.test_case "multithread correct, all modes" `Quick
      test_multithread_correct_all_modes;
    Alcotest.test_case "contention causes aborts" `Quick test_contention_causes_aborts;
    Alcotest.test_case "staggered reduces aborts" `Quick test_staggered_reduces_aborts;
    Alcotest.test_case "deterministic for a seed" `Quick test_determinism;
    Alcotest.test_case "seed affects schedule" `Quick test_seed_changes_schedule;
    Alcotest.test_case "events emitted" `Quick test_events_emitted;
    Alcotest.test_case "conflict tags use the compiled width" `Quick
      test_conflict_tags_use_compiled_width;
    Alcotest.test_case "irrevocable fallback" `Quick test_irrevocable_fallback;
    Alcotest.test_case "stats accounting sane" `Quick test_tx_stats_accounting;
    Alcotest.test_case "explicit abort retries and rolls back" `Quick
      test_explicit_abort_retries;
    Alcotest.test_case "instrumentation overhead small" `Quick
      test_uninstrumented_faster_single_thread;
    Alcotest.test_case "lazy HTM end to end correct" `Quick
      test_lazy_htm_counter_correct;
    Alcotest.test_case "program traps" `Quick test_traps;
    Alcotest.test_case "max-steps backstop" `Quick test_max_steps_backstop;
    Alcotest.test_case "thread-local loop hits max-steps" `Quick
      test_local_loop_hits_max_steps;
    Alcotest.test_case "doom preempts a division by zero" `Quick
      test_doom_preempts_div_by_zero;
    Alcotest.test_case "global-lock waiters resume in order" `Quick
      test_global_lock_waiters_resume_in_order;
    Alcotest.test_case "unreleased global lock traps" `Quick
      test_unreleased_global_lock_traps;
    q qcheck_counter_correct_any_schedule;
  ]
