open Stx_core
open Stx_machine
open Stx_sim

(* The policy engine's contract, tested from both ends: the default
   bundle must reproduce the pre-policy simulator bit-for-bit (the
   golden digests below were captured from the seed implementation on
   every workload x mode cell), and every non-default policy must keep
   the whole measurement pipeline — trace reconciliation and metrics
   reconciliation — internally consistent. *)

(* ---------------------------------------------------------------- *)
(* stats fingerprint: a digest over every counter, frequency table
   and per-block record, byte-stable across runs *)

let fingerprint (s : Stats.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string b (str ^ "\n")) fmt in
  line "threads %d" s.Stats.threads;
  line "commits %d" s.Stats.commits;
  line "aborts %d" s.Stats.aborts;
  line "conflict_aborts %d" s.Stats.conflict_aborts;
  line "lock_sub_aborts %d" s.Stats.lock_sub_aborts;
  line "explicit_aborts %d" s.Stats.explicit_aborts;
  line "irrevocable_entries %d" s.Stats.irrevocable_entries;
  line "useful_cycles %d" s.Stats.useful_cycles;
  line "wasted_cycles %d" s.Stats.wasted_cycles;
  line "tx_mode_cycles %d" s.Stats.tx_mode_cycles;
  line "lock_wait_cycles %d" s.Stats.lock_wait_cycles;
  line "backoff_cycles %d" s.Stats.backoff_cycles;
  line "total_cycles %d" s.Stats.total_cycles;
  line "thread_cycles %d" s.Stats.thread_cycles;
  line "lock_acquires %d" s.Stats.lock_acquires;
  line "lock_timeouts %d" s.Stats.lock_timeouts;
  line "alps_executed %d" s.Stats.alps_executed;
  line "alps_lock_attempts %d" s.Stats.alps_lock_attempts;
  line "accuracy_hits %d" s.Stats.accuracy_hits;
  line "accuracy_total %d" s.Stats.accuracy_total;
  line "precise %d" s.Stats.precise;
  line "coarse %d" s.Stats.coarse;
  line "promoted %d" s.Stats.promoted;
  line "training %d" s.Stats.training;
  line "insts %d" s.Stats.insts;
  line "tx_insts %d" s.Stats.tx_insts;
  line "committed_tx_insts %d" s.Stats.committed_tx_insts;
  let freq name tbl =
    let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b) in
    line "%s %d" name (List.length entries);
    List.iter (fun (k, v) -> line "%d %d" k v) entries
  in
  freq "conf_addr" s.Stats.conf_addr_freq;
  freq "conf_pc" s.Stats.conf_pc_freq;
  let abs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Stats.per_ab []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b) in
  line "per_ab %d" (List.length abs);
  List.iter (fun (id, (a : Stats.ab_stat)) ->
      line "%d %d %d %d %d" id a.Stats.ab_commits a.Stats.ab_aborts
        a.Stats.ab_locks a.Stats.ab_irrevocable) abs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------------------------------------------------------------- *)
(* golden equality: default bundle vs the pre-policy simulator        *)

let golden_seed = 3
let golden_scale = 0.05
let golden_threads = 4

(* captured from the pre-policy simulator at (seed 3, scale 0.05,
   4 threads); key is (workload, Mode.to_string) *)
let golden_digests =
  [
    (("genome", "HTM"), "9409e906789c82ad8e800c6c0e585bea");
    (("genome", "AddrOnly"), "3e0644e859e0910e4b5192d35751866a");
    (("genome", "Staggered+SW"), "cd4004fcc01ffa996889658ab66fe325");
    (("genome", "Staggered"), "831ce78ac4af764675663dc7eb383acb");
    (("intruder", "HTM"), "6ab683dbd03a87f6e1fade882e2d2ba1");
    (("intruder", "AddrOnly"), "d2d79ce9ba5f4eb7764dfee1f4164601");
    (("intruder", "Staggered+SW"), "38e293d2df993f9d3fa497497b31b5cb");
    (("intruder", "Staggered"), "c6f0dadb14391968689357c7f7fec5d3");
    (("kmeans", "HTM"), "0d9fab242116682029c82af8a56cf630");
    (("kmeans", "AddrOnly"), "6848ea595a808bb15911623cfd3c0063");
    (("kmeans", "Staggered+SW"), "ede044b2f9222342521dd24857f23bad");
    (("kmeans", "Staggered"), "e89666b71e18e89c57b6df9928b57db1");
    (("labyrinth", "HTM"), "930ff8366190ddb9070b8bb446168281");
    (("labyrinth", "AddrOnly"), "a93828a566c00ab3f5906696bf7befba");
    (("labyrinth", "Staggered+SW"), "b65f0249167035e3d2aff0d2663966b1");
    (("labyrinth", "Staggered"), "066bb2f20c551c8d46201098ec22ee06");
    (("ssca2", "HTM"), "92cfca71849b9eb6dd8699906b7af4d4");
    (("ssca2", "AddrOnly"), "92cfca71849b9eb6dd8699906b7af4d4");
    (("ssca2", "Staggered+SW"), "24a1d930d4ddee94e4ac3756e766b22e");
    (("ssca2", "Staggered"), "baf5bb27cd9587d8dabc2e6d04488a64");
    (("vacation", "HTM"), "08ab271a8660ca5c656ffafd136445ed");
    (("vacation", "AddrOnly"), "08ab271a8660ca5c656ffafd136445ed");
    (("vacation", "Staggered+SW"), "da41c84ec8234bb8699ce37199c3cbbd");
    (("vacation", "Staggered"), "d6e6d3bec62639dfe99ccc34715c0c10");
    (("list-lo", "HTM"), "9e015cb7809593c0b4ab593de3428999");
    (("list-lo", "AddrOnly"), "9e015cb7809593c0b4ab593de3428999");
    (("list-lo", "Staggered+SW"), "47d33952ca515efaa3057b21347e307c");
    (("list-lo", "Staggered"), "430825c67d3bd86f302a34df00b678b9");
    (("list-hi", "HTM"), "97897e3a55091dd08a2d694cb475f09a");
    (("list-hi", "AddrOnly"), "97897e3a55091dd08a2d694cb475f09a");
    (("list-hi", "Staggered+SW"), "f80e4a8be305b9c91e1333ee3200fe16");
    (("list-hi", "Staggered"), "42e95bb70448514197b3e9053ee179b4");
    (("tsp", "HTM"), "3691b7a2b636f32f32b2a0b5e0f0cf7c");
    (("tsp", "AddrOnly"), "ee952d1d358df26f1bf3dfbf21e93ddd");
    (("tsp", "Staggered+SW"), "a3579d934d7386ea63cd69b0e7eb40d1");
    (("tsp", "Staggered"), "68e95c3c789a7fb2d72c8154097d5ccb");
    (("memcached", "HTM"), "7d3186b760e0cce1cb14e1f22f687be8");
    (("memcached", "AddrOnly"), "4f486b85c6bf48b649638f0597f05fc9");
    (("memcached", "Staggered+SW"), "53c08d42ed888cba47fadf18b731b57a");
    (("memcached", "Staggered"), "e6d09eef10ddf41f8721c4188b5d801d");
  ]

(* the four cells captured per workload: the modes of Figure 7 *)
let golden_modes =
  [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ]

let run_cell ?(htm_policy = Stx_policy.default) ~seed ~scale ~threads ~mode w =
  let spec =
    Stx_workloads.Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w
  in
  let cfg = Config.with_cores threads Config.default in
  Machine.run ~seed ~htm_policy ~cfg ~mode spec

let test_default_bundle_is_golden () =
  List.iter
    (fun w ->
      List.iter
        (fun mode ->
          let name = w.Stx_workloads.Workload.name in
          let key = (name, Mode.to_string mode) in
          let expected =
            match List.assoc_opt key golden_digests with
            | Some d -> d
            | None ->
              Alcotest.fail
                (Printf.sprintf "no golden digest for %s/%s" name
                   (Mode.to_string mode))
          in
          let s =
            run_cell ~seed:golden_seed ~scale:golden_scale
              ~threads:golden_threads ~mode w
          in
          Alcotest.(check string)
            (Printf.sprintf "golden %s/%s" name (Mode.to_string mode))
            expected (fingerprint s);
          Alcotest.(check int)
            (Printf.sprintf "no capacity aborts %s/%s" name
               (Mode.to_string mode))
            0 s.Stats.capacity_aborts;
          (* the run files its totals under its own policy label *)
          let p =
            Stats.policy_tally s (Stx_policy.label Stx_policy.default)
          in
          Alcotest.(check int)
            "per-policy commits" s.Stats.commits p.Stats.p_commits;
          Alcotest.(check int)
            "per-policy aborts" s.Stats.aborts p.Stats.p_aborts)
        golden_modes)
    Stx_workloads.Registry.all

(* ---------------------------------------------------------------- *)
(* every non-default policy keeps trace + metrics reconciliation      *)

let non_default_policies =
  [
    Stx_policy.make ~resolution:Stx_policy.Resolution.Responder_wins ();
    Stx_policy.make ~resolution:Stx_policy.Resolution.Timestamp ();
    Stx_policy.make
      ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 8; write_lines = 4 })
      ();
    Stx_policy.make
      ~fallback:
        (Stx_policy.Fallback.Backoff
           { retries = 8; base = 16; max_exp = 6; seed = 11 })
      ();
    (* all three axes off the default point at once *)
    Stx_policy.make ~resolution:Stx_policy.Resolution.Timestamp
      ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 16; write_lines = 8 })
      ~fallback:(Stx_policy.Fallback.Polite { retries = Some 4 })
      ();
  ]

let check_workloads = [ "genome"; "intruder"; "list-hi" ]

let test_non_default_policies_reconcile () =
  List.iter
    (fun name ->
      let w =
        match Stx_workloads.Registry.find name with
        | Some w -> w
        | None -> Alcotest.fail ("missing workload " ^ name)
      in
      List.iter
        (fun htm_policy ->
          let mode = Mode.Staggered_hw in
          let threads = 4 in
          let spec =
            Stx_workloads.Workload.spec ~instrument:(Mode.uses_alps mode)
              ~scale:0.05 w
          in
          let cfg = Config.with_cores threads Config.default in
          let tr = Stx_trace.Trace.create ~threads () in
          let mc = Stx_metrics.Collect.create ~policy:htm_policy () in
          let s =
            Machine.run ~seed:3 ~htm_policy ~cfg ~mode
              ~on_event:(fun ~time ev ->
                Stx_metrics.Collect.handler mc ~time ev;
                Stx_trace.Trace.handler tr ~time ev)
              spec
          in
          let label = Stx_policy.label htm_policy in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s made progress" name label)
            true (s.Stats.commits > 0);
          (match Stx_trace.Trace.check tr s with
          | Ok () -> ()
          | Error errs ->
            Alcotest.fail
              (Printf.sprintf "%s/%s trace check: %s" name label
                 (String.concat "; " errs)));
          match Stx_metrics.Collect.check (Stx_metrics.Collect.registry mc) s with
          | Ok () -> ()
          | Error errs ->
            Alcotest.fail
              (Printf.sprintf "%s/%s metrics check: %s" name label
                 (String.concat "; " errs)))
        non_default_policies)
    check_workloads

(* ---------------------------------------------------------------- *)
(* capacity aborts: deterministic for a fixed seed, and routed        *)
(* straight to the irrevocable fallback                               *)

let tight = Stx_policy.Capacity.Bounded { read_lines = 2; write_lines = 1 }

let test_capacity_deterministic () =
  let w = Option.get (Stx_workloads.Registry.find "genome") in
  let htm_policy = Stx_policy.make ~capacity:tight () in
  let run () =
    run_cell ~htm_policy ~seed:3 ~scale:golden_scale ~threads:4
      ~mode:Mode.Baseline w
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "capacity aborts occurred" true
    (a.Stats.capacity_aborts > 0);
  Alcotest.(check string) "bit-for-bit repeatable" (fingerprint a)
    (fingerprint b);
  (* a capacity abort is a footprint problem, not contention: the tx
     must not retry in hardware (footprints don't shrink), so every
     capacity abort feeds an irrevocable entry *)
  Alcotest.(check bool) "capacity aborts go irrevocable" true
    (a.Stats.irrevocable_entries >= a.Stats.capacity_aborts);
  let p = Stats.policy_tally a (Stx_policy.label htm_policy) in
  Alcotest.(check int) "per-policy capacity tally" a.Stats.capacity_aborts
    p.Stats.p_capacity

(* ---------------------------------------------------------------- *)
(* timestamp karma: the hot shared-counter workload terminates with    *)
(* every increment applied — no livelock                               *)

let test_timestamp_no_livelock () =
  let threads = 8 and iters = 25 in
  let memo = ref None in
  let spec0 = Test_sim.counter_spec ~iters () in
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
  let cfg = Config.with_cores threads Config.default in
  let htm_policy =
    Stx_policy.make ~resolution:Stx_policy.Resolution.Timestamp ()
  in
  let stats = Machine.run ~seed:7 ~htm_policy ~cfg ~mode:Mode.Baseline spec in
  let v = Memory.load (Option.get !memo) !Test_sim.counter_addr in
  Alcotest.(check int) "every increment applied" (threads * iters) v;
  Alcotest.(check int) "every tx committed" (threads * iters)
    stats.Stats.commits;
  Alcotest.(check int) "no capacity aborts" 0 stats.Stats.capacity_aborts

(* responder-wins on the same workload also terminates correctly: the
   fallback ladder guarantees progress even when requesters suicide *)
let test_responder_wins_terminates () =
  let threads = 4 and iters = 20 in
  let memo = ref None in
  let spec0 = Test_sim.counter_spec ~iters () in
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
  let cfg = Config.with_cores threads Config.default in
  let htm_policy =
    Stx_policy.make ~resolution:Stx_policy.Resolution.Responder_wins ()
  in
  let stats = Machine.run ~seed:7 ~htm_policy ~cfg ~mode:Mode.Baseline spec in
  let v = Memory.load (Option.get !memo) !Test_sim.counter_addr in
  Alcotest.(check int) "every increment applied" (threads * iters) v;
  Alcotest.(check int) "every tx committed" (threads * iters)
    stats.Stats.commits

(* ---------------------------------------------------------------- *)
(* Htm-level: capacity and nt-store dooms report true set sizes        *)

let htm_setup policy =
  let cfg = Config.with_cores 4 Config.default in
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:cfg.Config.words_per_line mem in
  (mem, Stx_htm.Htm.create ~policy cfg mem alloc)

let test_capacity_doom_set_sizes () =
  let open Stx_htm in
  let policy =
    Stx_policy.make
      ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 1; write_lines = 1 })
      ()
  in
  let _, htm = htm_setup policy in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  (* second distinct line exceeds the 1-line read budget *)
  ignore (Htm.tx_load htm ~core:0 ~addr:128 ~pc:2);
  (match Htm.status htm ~core:0 with
  | Htm.Doomed Htm.Capacity -> ()
  | _ -> Alcotest.fail "expected a capacity doom");
  (* the doomed footprint counts the line that did not fit, never 0/0 *)
  Alcotest.(check (pair int int))
    "set sizes at the moment the budget broke" (2, 0)
    (Htm.last_set_sizes htm ~core:0);
  (match Htm.tx_cleanup htm ~core:0 with
  | Htm.Capacity -> ()
  | _ -> Alcotest.fail "cleanup should return Capacity")

let test_capacity_doom_write_budget () =
  let open Stx_htm in
  let policy =
    Stx_policy.make
      ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 8; write_lines = 1 })
      ()
  in
  let _, htm = htm_setup policy in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_store htm ~core:0 ~addr:128 ~value:2 ~pc:2;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed Htm.Capacity -> ()
  | _ -> Alcotest.fail "expected a capacity doom");
  Alcotest.(check (pair int int))
    "write budget overflow counted" (0, 2)
    (Htm.last_set_sizes htm ~core:0)

let test_nt_store_doom_set_sizes () =
  let open Stx_htm in
  let _, htm = htm_setup Stx_policy.default in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  Htm.tx_store htm ~core:0 ~addr:128 ~value:5 ~pc:2;
  (* an nt store by another core dooms the transaction; the recorded
     footprint must be the 1-read/1-write state, not post-reset 0/0 *)
  Htm.nt_store htm ~core:1 ~addr:64 ~value:9;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "expected a conflict doom");
  Alcotest.(check (pair int int))
    "set sizes at nt-store doom" (1, 1)
    (Htm.last_set_sizes htm ~core:0)

(* under responder-wins an nt store still wins: it cannot roll back *)
let test_nt_store_wins_under_responder () =
  let open Stx_htm in
  let policy =
    Stx_policy.make ~resolution:Stx_policy.Resolution.Responder_wins ()
  in
  let mem, htm = htm_setup policy in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.nt_store htm ~core:1 ~addr:64 ~value:9;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "nt store must doom the transaction");
  Alcotest.(check int) "nt value in memory" 9 (Memory.load mem 64)

(* requester suicide under responder-wins: the established owner keeps
   running, the requester dooms itself *)
let test_responder_wins_suicide () =
  let open Stx_htm in
  let policy =
    Stx_policy.make ~resolution:Stx_policy.Resolution.Responder_wins ()
  in
  let _, htm = htm_setup policy in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:2;
  Alcotest.(check bool) "owner survives" true
    (Htm.status htm ~core:0 = Htm.Active);
  (match Htm.status htm ~core:1 with
  | Htm.Doomed (Htm.Conflict { aggressor; _ }) ->
    Alcotest.(check int) "owner recorded as aggressor" 0 aggressor
  | _ -> Alcotest.fail "requester should have doomed itself");
  ignore (Htm.tx_cleanup htm ~core:1);
  Alcotest.(check bool) "owner commits" true (Htm.tx_commit htm ~core:0)

(* timestamp karma at the Htm level: the older transaction survives in
   both roles *)
let test_timestamp_older_wins () =
  let open Stx_htm in
  let policy =
    Stx_policy.make ~resolution:Stx_policy.Resolution.Timestamp ()
  in
  let _, htm = htm_setup policy in
  (* core 0 begins first (older), core 1 second (younger) *)
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  (* younger requester hits the older owner's line: requester loses *)
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:2;
  Alcotest.(check bool) "older survives as responder" true
    (Htm.status htm ~core:0 = Htm.Active);
  (match Htm.status htm ~core:1 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "younger requester should lose");
  ignore (Htm.tx_cleanup htm ~core:1);
  (* now the older core requests into a younger owner's line: wins *)
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:1 ~addr:128 ~value:3 ~pc:3;
  Htm.tx_store htm ~core:0 ~addr:128 ~value:4 ~pc:4;
  Alcotest.(check bool) "older survives as requester" true
    (Htm.status htm ~core:0 = Htm.Active);
  (match Htm.status htm ~core:1 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "younger owner should be doomed")

(* ---------------------------------------------------------------- *)
(* Stats.merge over the new fields is associative                     *)

let mk_stats ~capacity ~tallies () =
  let s = Stats.create ~threads:2 in
  s.Stats.capacity_aborts <- capacity;
  List.iter
    (fun (label, c, a, cap, irr) ->
      let p = Stats.policy_tally s label in
      p.Stats.p_commits <- c;
      p.Stats.p_aborts <- a;
      p.Stats.p_capacity <- cap;
      p.Stats.p_irrevocable <- irr)
    tallies;
  s

let tally_list (s : Stats.t) =
  Hashtbl.fold
    (fun label (p : Stats.pol_stat) acc ->
      (label, (p.Stats.p_commits, p.Stats.p_aborts, p.Stats.p_capacity,
               p.Stats.p_irrevocable))
      :: acc)
    s.Stats.per_policy []
  |> List.sort compare

let test_merge_associative () =
  let a =
    mk_stats ~capacity:3 ~tallies:[ ("requester-wins+unbounded+polite", 10, 4, 0, 1) ] ()
  in
  let b =
    mk_stats ~capacity:5
      ~tallies:
        [
          ("requester-wins+unbounded+polite", 7, 2, 0, 0);
          ("timestamp+bounded:8:4+polite", 3, 9, 5, 2);
        ]
      ()
  in
  let c =
    mk_stats ~capacity:1 ~tallies:[ ("timestamp+bounded:8:4+polite", 1, 1, 1, 1) ] ()
  in
  let left = Stats.merge (Stats.merge a b) c in
  let right = Stats.merge a (Stats.merge b c) in
  Alcotest.(check int) "capacity sum" 9 left.Stats.capacity_aborts;
  Alcotest.(check int) "capacity assoc" left.Stats.capacity_aborts
    right.Stats.capacity_aborts;
  Alcotest.(check
      (list (pair string (pair (pair int int) (pair int int)))))
    "per-policy assoc"
    (List.map (fun (l, (c, a, cap, i)) -> (l, ((c, a), (cap, i)))) (tally_list left))
    (List.map (fun (l, (c, a, cap, i)) -> (l, ((c, a), (cap, i)))) (tally_list right));
  Alcotest.(check (list (pair string (pair (pair int int) (pair int int)))))
    "per-policy sums"
    [
      ("requester-wins+unbounded+polite", ((17, 6), (0, 1)));
      ("timestamp+bounded:8:4+polite", ((4, 10), (6, 3)));
    ]
    (List.map (fun (l, (c, a, cap, i)) -> (l, ((c, a), (cap, i)))) (tally_list left))

(* ---------------------------------------------------------------- *)
(* job digests see the policy: an experiment context hands its bundle to
   every cell, and simulates each cell once under it                  *)

let test_job_digest_sees_policy () =
  let module Exp = Stx_harness.Exp in
  let genome = Option.get (Stx_workloads.Registry.find "genome") in
  let run policy =
    let ctx = Exp.create ~policy ~seed:3 ~scale:0.05 ~threads:4 ~jobs:2 () in
    (* [Exp] compiles a cell's workload once per simulation *)
    let builds = Atomic.make 0 in
    let build () =
      Atomic.incr builds;
      genome.Stx_workloads.Workload.build ()
    in
    let counted = { genome with Stx_workloads.Workload.build } in
    let cell = (counted, Mode.Baseline, 4) in
    Exp.prefetch ctx [ cell; cell ];
    let r = Exp.run ctx counted Mode.Baseline in
    Alcotest.(check int) "each policy variant simulates once" 1
      (Atomic.get builds);
    Test_exact.fingerprint r
  in
  let d0 = run Stx_policy.default in
  let d1 = run (Stx_policy.make ~resolution:Stx_policy.Resolution.Timestamp ()) in
  let d2 = run (Stx_policy.make ~capacity:tight ()) in
  Alcotest.(check bool) "timestamp digest differs" true (d0 <> d1);
  Alcotest.(check bool) "capacity digest differs" true (d0 <> d2);
  Alcotest.(check bool) "non-default digests differ" true (d1 <> d2)

(* ---------------------------------------------------------------- *)
(* labels                                                             *)

let test_label_roundtrip () =
  let bundles =
    Stx_policy.default
    :: non_default_policies
  in
  List.iter
    (fun p ->
      let l = Stx_policy.label p in
      (* labels must stay inside the metrics-registry value charset *)
      String.iter
        (fun ch ->
          let ok =
            (ch >= 'a' && ch <= 'z')
            || (ch >= 'A' && ch <= 'Z')
            || (ch >= '0' && ch <= '9')
            || ch = '_' || ch = '.' || ch = ':' || ch = '+' || ch = '-'
          in
          if not ok then
            Alcotest.fail (Printf.sprintf "label %S has bad char %c" l ch))
        l)
    bundles

let test_retry_budget () =
  let open Stx_policy.Fallback in
  Alcotest.(check int) "polite default" 10
    (retry_budget (Polite { retries = None }));
  Alcotest.(check int) "polite explicit" 3
    (retry_budget (Polite { retries = Some 3 }));
  Alcotest.(check int) "backoff" 5
    (retry_budget (Backoff { retries = 5; base = 16; max_exp = 8; seed = 0 }))

let suite =
  [
    Alcotest.test_case "default bundle reproduces seed stats (40 cells)"
      `Slow test_default_bundle_is_golden;
    Alcotest.test_case "non-default policies reconcile trace+metrics" `Quick
      test_non_default_policies_reconcile;
    Alcotest.test_case "capacity aborts deterministic, go irrevocable" `Quick
      test_capacity_deterministic;
    Alcotest.test_case "timestamp karma: no livelock on hot counter" `Quick
      test_timestamp_no_livelock;
    Alcotest.test_case "responder-wins terminates hot counter" `Quick
      test_responder_wins_terminates;
    Alcotest.test_case "capacity doom reports true read footprint" `Quick
      test_capacity_doom_set_sizes;
    Alcotest.test_case "capacity doom reports true write footprint" `Quick
      test_capacity_doom_write_budget;
    Alcotest.test_case "nt-store doom reports true set sizes" `Quick
      test_nt_store_doom_set_sizes;
    Alcotest.test_case "nt store wins under responder-wins" `Quick
      test_nt_store_wins_under_responder;
    Alcotest.test_case "responder-wins requester suicides" `Quick
      test_responder_wins_suicide;
    Alcotest.test_case "timestamp: older transaction wins both roles" `Quick
      test_timestamp_older_wins;
    Alcotest.test_case "merge associative over capacity + per-policy" `Quick
      test_merge_associative;
    Alcotest.test_case "job digest is policy-sensitive" `Quick
      test_job_digest_sees_policy;
    Alcotest.test_case "policy labels round-trip and stay in charset" `Quick
      test_label_roundtrip;
    Alcotest.test_case "fallback retry budgets" `Quick test_retry_budget;
  ]
