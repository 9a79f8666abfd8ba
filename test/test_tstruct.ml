open Stx_tir
open Stx_machine
open Stx_core
open Stx_sim
open Stx_tstruct

(* Helpers: run [threads] copies of a TIR main under a mode, returning the
   memory so invariants can be checked afterwards. *)

let run_spec ?(threads = 4) ?(seed = 11) ~mode ~build ~setup () =
  let p = Ir.create_program () in
  let finish = build p in
  let compiled = Stx_compiler.Pipeline.compile p in
  let memo = ref None in
  let shared = ref [] in
  let spec =
    {
      Machine.compiled;
      Machine.thread_main = "main";
      Machine.thread_args =
        (fun env ~threads ->
          memo := Some env.Machine.memory;
          let roots = setup env in
          shared := roots;
          Array.init threads (fun tid -> Array.of_list (finish tid roots)));
    }
  in
  let cfg = Config.with_cores threads Config.default in
  let stats = Machine.run ~seed ~cfg ~mode spec in
  (stats, Option.get !memo, !shared)

(* result slots, one cache line apart so threads never share a line *)
let alloc_slots env threads =
  let base = Alloc.alloc_shared env.Machine.alloc (threads * 8) in
  Array.init threads (fun i -> base + (i * 8))

(* --- sorted list ------------------------------------------------------ *)

(* each thread does [ops] random lookup/insert/delete in transactions and
   accumulates (inserted - deleted) into its private slot *)
let list_main p ~key_range ~pct_lookup ~pct_insert =
  Tlist.register p;
  let ab_l = Ir.add_atomic p ~name:"lookup" ~func:Tlist.lookup_fn in
  let ab_i = Ir.add_atomic p ~name:"insert" ~func:Tlist.insert_fn in
  let ab_d = Ir.add_atomic p ~name:"delete" ~func:Tlist.delete_fn in
  let b = Builder.create p "main" ~params:[ "head"; "ops"; "slot" ] in
  let net = Builder.reg b "net" in
  Builder.mov b net (Ir.Imm 0);
  Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "ops") (fun b _ ->
      let key = Builder.rng b (Ir.Imm key_range) in
      let dice = Builder.rng b (Ir.Imm 100) in
      Builder.if_ b
        (Builder.bin b Ir.Lt dice (Ir.Imm pct_lookup))
        (fun b -> ignore (Builder.atomic_call_v b ab_l [ Builder.param b "head"; key ]))
        (fun b ->
          Builder.if_ b
            (Builder.bin b Ir.Lt dice (Ir.Imm (pct_lookup + pct_insert)))
            (fun b ->
              let r = Builder.atomic_call_v b ab_i [ Builder.param b "head"; key ] in
              Builder.bin_to b net Ir.Add (Ir.Reg net) r)
            (fun b ->
              let r = Builder.atomic_call_v b ab_d [ Builder.param b "head"; key ] in
              Builder.bin_to b net Ir.Sub (Ir.Reg net) r)));
  Builder.store b ~addr:(Builder.param b "slot") (Ir.Reg net);
  Builder.ret b None;
  ignore (Builder.finish b)

let check_sorted_unique l =
  let rec ok = function
    | a :: (b :: _ as rest) -> a < b && ok rest
    | _ -> true
  in
  ok l

let test_list_sequential_semantics () =
  let stats, mem, roots =
    run_spec ~threads:1 ~mode:Mode.Baseline
      ~build:(fun p ->
        list_main p ~key_range:32 ~pct_lookup:20 ~pct_insert:40;
        fun _tid roots -> match roots with [ head; slot ] -> [ head; 100; slot ] | _ -> [])
      ~setup:(fun env ->
        let head = Tlist.setup env.Machine.memory env.Machine.alloc ~keys:[ 5; 10; 15 ] in
        let slots = alloc_slots env 1 in
        [ head; slots.(0) ])
      ()
  in
  ignore stats;
  match roots with
  | [ head; slot ] ->
    let final = Tlist.to_list mem head in
    Alcotest.(check bool) "sorted unique" true (check_sorted_unique final);
    let net = Memory.load mem slot in
    Alcotest.(check int) "conservation" (3 + net) (List.length final)
  | _ -> Alcotest.fail "roots"

let test_list_concurrent_conservation () =
  List.iter
    (fun mode ->
      let _, mem, roots =
        run_spec ~threads:8 ~mode
          ~build:(fun p ->
            list_main p ~key_range:64 ~pct_lookup:60 ~pct_insert:20;
            fun tid roots ->
              match roots with
              | head :: slots -> [ head; 60; List.nth slots tid ]
              | _ -> [])
          ~setup:(fun env ->
            let keys = List.init 32 (fun i -> i * 2) in
            let head = Tlist.setup env.Machine.memory env.Machine.alloc ~keys in
            let slots = alloc_slots env 8 in
            head :: Array.to_list slots)
          ()
      in
      match roots with
      | head :: slots ->
        let final = Tlist.to_list mem head in
        Alcotest.(check bool)
          (Mode.to_string mode ^ " sorted unique")
          true (check_sorted_unique final);
        let net = List.fold_left (fun acc s -> acc + Memory.load mem s) 0 slots in
        Alcotest.(check int)
          (Mode.to_string mode ^ " conservation")
          (32 + net) (List.length final)
      | _ -> Alcotest.fail "roots")
    [ Mode.Baseline; Mode.Staggered_hw; Mode.Staggered_sw; Mode.Addr_only ]

(* --- hash table ------------------------------------------------------- *)

let test_hash_concurrent_conservation () =
  let _, mem, roots =
    run_spec ~threads:8 ~mode:Mode.Staggered_hw
      ~build:(fun p ->
        Thash.register p;
        let ab_i = Ir.add_atomic p ~name:"ht_insert" ~func:Thash.insert_fn in
        let ab_d = Ir.add_atomic p ~name:"ht_delete" ~func:Thash.delete_fn in
        let b = Builder.create p "main" ~params:[ "ht"; "ops"; "slot" ] in
        let net = Builder.reg b "net" in
        Builder.mov b net (Ir.Imm 0);
        Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "ops") (fun b _ ->
            let key = Builder.rng b (Ir.Imm 128) in
            Builder.if_ b
              (Builder.bin b Ir.Lt (Builder.rng b (Ir.Imm 100)) (Ir.Imm 50))
              (fun b ->
                let r = Builder.atomic_call_v b ab_i [ Builder.param b "ht"; key ] in
                Builder.bin_to b net Ir.Add (Ir.Reg net) r)
              (fun b ->
                let r = Builder.atomic_call_v b ab_d [ Builder.param b "ht"; key ] in
                Builder.bin_to b net Ir.Sub (Ir.Reg net) r));
        Builder.store b ~addr:(Builder.param b "slot") (Ir.Reg net);
        Builder.ret b None;
        ignore (Builder.finish b);
        fun tid roots ->
          match roots with ht :: slots -> [ ht; 40; List.nth slots tid ] | _ -> [])
      ~setup:(fun env ->
        let keys = List.init 48 (fun i -> i * 3) in
        let ht =
          Thash.setup env.Machine.memory env.Machine.alloc ~nbuckets:16 ~keys
        in
        let slots = alloc_slots env 8 in
        ht :: Array.to_list slots)
      ()
  in
  match roots with
  | ht :: slots ->
    let net = List.fold_left (fun acc s -> acc + Memory.load mem s) 0 slots in
    Alcotest.(check int) "conservation" (48 + net) (Thash.size mem ht)
  | _ -> Alcotest.fail "roots"

(* --- queue ------------------------------------------------------------ *)

let test_queue_concurrent_push_pop () =
  let threads = 6 in
  let _, mem, roots =
    run_spec ~threads ~mode:Mode.Staggered_hw
      ~build:(fun p ->
        Tqueue.register p;
        let ab_push = Ir.add_atomic p ~name:"push" ~func:Tqueue.push_fn in
        let ab_pop = Ir.add_atomic p ~name:"pop" ~func:Tqueue.pop_fn in
        let b = Builder.create p "main" ~params:[ "q"; "ops"; "tid_base"; "slot" ] in
        let pops = Builder.reg b "pops" in
        Builder.mov b pops (Ir.Imm 0);
        Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "ops") (fun b i ->
            let v = Builder.bin b Ir.Add (Builder.param b "tid_base") i in
            Builder.atomic_call b ab_push [ Builder.param b "q"; v ];
            let r = Builder.atomic_call_v b ab_pop [ Builder.param b "q" ] in
            Builder.when_ b
              (Builder.bin b Ir.Ne r (Ir.Imm (-1)))
              (fun b -> Builder.bin_to b pops Ir.Add (Ir.Reg pops) (Ir.Imm 1)));
        Builder.store b ~addr:(Builder.param b "slot") (Ir.Reg pops);
        Builder.ret b None;
        ignore (Builder.finish b);
        fun tid roots ->
          match roots with
          | q :: slots -> [ q; 30; tid * 1000; List.nth slots tid ]
          | _ -> [])
      ~setup:(fun env ->
        let q = Tqueue.setup env.Machine.memory env.Machine.alloc ~init:[] in
        let slots = alloc_slots env threads in
        q :: Array.to_list slots)
      ()
  in
  match roots with
  | q :: slots ->
    let popped = List.fold_left (fun acc s -> acc + Memory.load mem s) 0 slots in
    let remaining = List.length (Tqueue.to_list mem q) in
    Alcotest.(check int) "pushes = pops + remaining" (threads * 30) (popped + remaining)
  | _ -> Alcotest.fail "roots"

let test_queue_fifo_single_thread () =
  let _, mem, roots =
    run_spec ~threads:1 ~mode:Mode.Baseline
      ~build:(fun p ->
        Tqueue.register p;
        let ab_push = Ir.add_atomic p ~name:"push" ~func:Tqueue.push_fn in
        let b = Builder.create p "main" ~params:[ "q" ] in
        List.iter
          (fun v -> Builder.atomic_call b ab_push [ Builder.param b "q"; Ir.Imm v ])
          [ 3; 1; 4; 1; 5 ];
        Builder.ret b None;
        ignore (Builder.finish b);
        fun _ roots -> roots)
      ~setup:(fun env -> [ Tqueue.setup env.Machine.memory env.Machine.alloc ~init:[ 9 ] ])
      ()
  in
  match roots with
  | [ q ] ->
    Alcotest.(check (list int)) "fifo order" [ 9; 3; 1; 4; 1; 5 ] (Tqueue.to_list mem q)
  | _ -> Alcotest.fail "roots"

(* --- calendar priority queue ------------------------------------------- *)

let test_calqueue_host_roundtrip () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:8 mem in
  let q =
    Tcalqueue.setup mem alloc ~nbuckets:8 ~capacity:7 ~width:10
      ~init:[ (5, 50); (35, 350); (12, 120) ]
  in
  Alcotest.(check int) "size" 3 (Tcalqueue.size mem q);
  Alcotest.(check (list int)) "bucket order" [ 0; 1; 3 ] (Tcalqueue.drain_order mem q)

let test_calqueue_overflow_drops () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:8 mem in
  let q = Tcalqueue.setup mem alloc ~nbuckets:2 ~capacity:2 ~width:10 ~init:[] in
  Alcotest.(check bool) "1st" true (Tcalqueue.host_insert mem q ~prio:1 ~data:1);
  Alcotest.(check bool) "2nd" true (Tcalqueue.host_insert mem q ~prio:2 ~data:2);
  Alcotest.(check bool) "overflow" false (Tcalqueue.host_insert mem q ~prio:3 ~data:3);
  Alcotest.(check int) "size capped" 2 (Tcalqueue.size mem q)

let test_calqueue_tir_pop_min_first () =
  let _, mem, roots =
    run_spec ~threads:1 ~mode:Mode.Baseline
      ~build:(fun p ->
        Tcalqueue.register p;
        let ab_pop = Ir.add_atomic p ~name:"pop" ~func:Tcalqueue.pop_fn in
        let b = Builder.create p "main" ~params:[ "q"; "out"; "n" ] in
        Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "n") (fun b i ->
            let d = Builder.atomic_call_v b ab_pop [ Builder.param b "q" ] in
            Builder.store b ~addr:(Builder.idx b (Builder.param b "out") ~esize:1 i) d);
        Builder.ret b None;
        ignore (Builder.finish b);
        fun _ roots -> match roots with [ q; out ] -> [ q; out; 5 ] | _ -> [])
      ~setup:(fun env ->
        let q =
          Tcalqueue.setup env.Machine.memory env.Machine.alloc ~nbuckets:8
            ~capacity:7 ~width:10
            ~init:[ (35, 35); (5, 5); (12, 12); (3, 3) ]
        in
        let out = Alloc.alloc_shared env.Machine.alloc 8 in
        [ q; out ])
      ()
  in
  match roots with
  | [ _; out ] ->
    let drained = List.init 5 (fun i -> Memory.load mem (out + i)) in
    (* bucket-exact order: bucket 0 holds {3,5} (LIFO within the sorted
       bucket pops the largest first is wrong: sorted ascending, pop takes
       the last slot = max of the head bucket) then bucket 1, etc. *)
    Alcotest.(check bool) "min bucket first" true
      (match drained with
      | a :: b :: c :: d :: e :: _ ->
        List.sort compare [ a; b ] = [ 3; 5 ] && c = 12 && d = 35 && e = -1
      | _ -> false)
  | _ -> Alcotest.fail "roots"

let test_calqueue_concurrent_conservation () =
  let threads = 4 in
  let _, mem, roots =
    run_spec ~threads ~mode:Mode.Staggered_hw
      ~build:(fun p ->
        Tcalqueue.register p;
        let ab_pop = Ir.add_atomic p ~name:"pop" ~func:Tcalqueue.pop_fn in
        let ab_ins = Ir.add_atomic p ~name:"ins" ~func:Tcalqueue.insert_fn in
        let b = Builder.create p "main" ~params:[ "q"; "ops"; "slot" ] in
        let net = Builder.reg b "net" in
        Builder.mov b net (Ir.Imm 0);
        Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "ops") (fun b _ ->
            let prio = Builder.rng b (Ir.Imm 300) in
            let ok = Builder.atomic_call_v b ab_ins [ Builder.param b "q"; prio; prio ] in
            Builder.bin_to b net Ir.Add (Ir.Reg net) ok;
            let r = Builder.atomic_call_v b ab_pop [ Builder.param b "q" ] in
            Builder.when_ b
              (Builder.bin b Ir.Ne r (Ir.Imm (-1)))
              (fun b -> Builder.bin_to b net Ir.Sub (Ir.Reg net) (Ir.Imm 1)));
        Builder.store b ~addr:(Builder.param b "slot") (Ir.Reg net);
        Builder.ret b None;
        ignore (Builder.finish b);
        fun tid roots ->
          match roots with q :: slots -> [ q; 20; List.nth slots tid ] | _ -> [])
      ~setup:(fun env ->
        let q =
          Tcalqueue.setup env.Machine.memory env.Machine.alloc ~nbuckets:32
            ~capacity:23 ~width:10 ~init:[ (10, 1); (20, 2) ]
        in
        let slots = alloc_slots env threads in
        q :: Array.to_list slots)
      ()
  in
  match roots with
  | q :: slots ->
    let net = List.fold_left (fun acc s -> acc + Memory.load mem s) 0 slots in
    Alcotest.(check int) "conservation" (2 + net) (Tcalqueue.size mem q)
  | _ -> Alcotest.fail "roots"

(* --- red-black tree ------------------------------------------------------ *)

let test_rbt_host_invariants () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:8 mem in
  let rng = Stx_util.Rng.create 13 in
  let pairs = List.init 200 (fun _ -> (Stx_util.Rng.int rng 500, 1)) in
  let t = Trbt.setup mem alloc ~pairs in
  (match Trbt.check_invariants mem t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant: " ^ msg));
  let ks = Trbt.keys mem t in
  Alcotest.(check bool) "sorted unique" true (check_sorted_unique ks);
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "present" true (Trbt.host_lookup mem t k <> None))
    pairs

let test_rbt_tir_matches_host () =
  (* the same insert sequence through the TIR implementation must produce
     a valid tree with the same keys *)
  let inserts = [ 50; 20; 70; 10; 30; 60; 80; 5; 25; 35; 65; 90; 1; 2; 3; 4 ] in
  let _, mem, roots =
    run_spec ~threads:1 ~mode:Mode.Baseline
      ~build:(fun p ->
        Trbt.register p;
        let ab = Ir.add_atomic p ~name:"insert" ~func:Trbt.insert_fn in
        let b = Builder.create p "main" ~params:[ "tree" ] in
        List.iter
          (fun k -> Builder.atomic_call b ab [ Builder.param b "tree"; Ir.Imm k; Ir.Imm k ])
          inserts;
        Builder.ret b None;
        ignore (Builder.finish b);
        fun _ roots -> roots)
      ~setup:(fun env -> [ Trbt.setup env.Machine.memory env.Machine.alloc ~pairs:[] ])
      ()
  in
  match roots with
  | [ t ] ->
    (match Trbt.check_invariants mem t with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("invariant: " ^ msg));
    Alcotest.(check (list int)) "keys" (List.sort compare inserts) (Trbt.keys mem t)
  | _ -> Alcotest.fail "roots"

let test_rbt_concurrent_inserts_keep_invariants () =
  let threads = 6 and per = 30 in
  let _, mem, roots =
    run_spec ~threads ~mode:Mode.Staggered_hw
      ~build:(fun p ->
        Trbt.register p;
        let ab = Ir.add_atomic p ~name:"insert" ~func:Trbt.insert_fn in
        let b = Builder.create p "main" ~params:[ "tree"; "base"; "n" ] in
        Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "n") (fun b i ->
            let k = Builder.bin b Ir.Add (Builder.param b "base") i in
            Builder.atomic_call b ab [ Builder.param b "tree"; k; k ]);
        Builder.ret b None;
        ignore (Builder.finish b);
        fun tid roots ->
          match roots with [ t ] -> [ t; 1000 + (tid * per); per ] | _ -> [])
      ~setup:(fun env ->
        [ Trbt.setup env.Machine.memory env.Machine.alloc ~pairs:[ (500, 500) ] ])
      ()
  in
  match roots with
  | [ t ] ->
    (match Trbt.check_invariants mem t with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("invariant after concurrency: " ^ msg));
    Alcotest.(check int) "all inserted" (1 + (threads * per))
      (List.length (Trbt.keys mem t))
  | _ -> Alcotest.fail "roots"

let qcheck_rbt_random_inserts =
  QCheck.Test.make ~name:"rbt invariants hold for random host inserts" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 120) (int_range 0 300))
    (fun keys ->
      let mem = Memory.create () in
      let alloc = Alloc.create ~words_per_line:8 mem in
      let t = Trbt.setup mem alloc ~pairs:(List.map (fun k -> (k, k)) keys) in
      Trbt.check_invariants mem t = Ok ()
      && Trbt.keys mem t = List.sort_uniq compare keys)

let suite =
  [
    Alcotest.test_case "list sequential semantics" `Quick test_list_sequential_semantics;
    Alcotest.test_case "list concurrent conservation (all modes)" `Slow
      test_list_concurrent_conservation;
    Alcotest.test_case "hash concurrent conservation" `Quick
      test_hash_concurrent_conservation;
    Alcotest.test_case "queue concurrent push/pop" `Quick test_queue_concurrent_push_pop;
    Alcotest.test_case "queue fifo order" `Quick test_queue_fifo_single_thread;
    Alcotest.test_case "calqueue host roundtrip" `Quick test_calqueue_host_roundtrip;
    Alcotest.test_case "calqueue overflow drops" `Quick test_calqueue_overflow_drops;
    Alcotest.test_case "calqueue pops min bucket first" `Quick
      test_calqueue_tir_pop_min_first;
    Alcotest.test_case "calqueue concurrent conservation" `Quick
      test_calqueue_concurrent_conservation;
    Alcotest.test_case "rbt host invariants" `Quick test_rbt_host_invariants;
    Alcotest.test_case "rbt tir matches host" `Quick test_rbt_tir_matches_host;
    Alcotest.test_case "rbt concurrent inserts keep invariants" `Quick
      test_rbt_concurrent_inserts_keep_invariants;
    QCheck_alcotest.to_alcotest qcheck_rbt_random_inserts;
  ]
