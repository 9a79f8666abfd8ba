open Stx_machine
open Stx_htm
open Stx_stm
open Stx_core
open Stx_sim

(* --- unit-level interop: Stm against a live Htm ----------------------- *)

let cfg = Config.with_cores 4 Config.default

let setup ?(wire_publish = true) () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:cfg.Config.words_per_line mem in
  let htm = Htm.create cfg mem alloc in
  let stm = Stm.create htm mem alloc in
  if wire_publish then
    Htm.set_on_publish htm (Some (fun ~line -> Stm.note_published stm ~line));
  (mem, htm, stm)

let test_stm_commit_publishes_and_dooms_hw () =
  let mem, htm, stm = setup () in
  (* a speculative hardware reader of line 64... *)
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  (* ...loses to a committing software writer of the same line *)
  Stm.tx_begin stm ~core:1;
  Stm.tx_store stm ~core:1 ~addr:64 ~value:42;
  Alcotest.(check int) "nothing published before commit" 0 (Memory.load mem 64);
  Alcotest.(check bool) "software commit wins" true (Stm.tx_commit stm ~core:1);
  Alcotest.(check int) "durable value published" 42 (Memory.load mem 64);
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Stm_conflict { conf_addr; aggressor }) ->
    Alcotest.(check int) "conflict addr" 64 conf_addr;
    Alcotest.(check int) "aggressor core" 1 aggressor
  | _ -> Alcotest.fail "hardware reader should be doomed with Stm_conflict");
  ignore (Htm.tx_cleanup htm ~core:0)

let test_stm_defers_to_hw_writer () =
  let mem, htm, stm = setup () in
  (* a speculative hardware writer owns line 64 *)
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:7 ~pc:1;
  (* the software transaction must not publish over the buffered update *)
  Stm.tx_begin stm ~core:1;
  Stm.tx_store stm ~core:1 ~addr:64 ~value:99;
  Alcotest.(check bool) "software commit refuses" false (Stm.tx_commit stm ~core:1);
  Alcotest.(check bool) "reason is hw-owned" true
    (Stm.tx_cleanup stm ~core:1 = Stm.Hw_owned);
  Alcotest.(check bool) "hardware writer survives" true
    (Htm.status htm ~core:0 = Htm.Active);
  Alcotest.(check bool) "hardware commit ok" true (Htm.tx_commit htm ~core:0);
  Alcotest.(check int) "hardware value endures" 7 (Memory.load mem 64)

let test_stm_opacity_on_reread () =
  let _, _, stm = setup () in
  Stm.tx_begin stm ~core:0;
  ignore (Stm.tx_load stm ~core:0 ~addr:64);
  (* a concurrent software commit invalidates the snapshot *)
  Stm.tx_begin stm ~core:1;
  Stm.tx_store stm ~core:1 ~addr:64 ~value:5;
  Alcotest.(check bool) "writer commits" true (Stm.tx_commit stm ~core:1);
  (* the reader is doomed the moment it re-touches the line: it can never
     observe the new value inside the old snapshot *)
  ignore (Stm.tx_load stm ~core:0 ~addr:64);
  Alcotest.(check bool) "reader doomed on re-read" true
    (Stm.status stm ~core:0 = Stm.Doomed Stm.Validation);
  Alcotest.(check bool) "commit refuses" false (Stm.tx_commit stm ~core:0);
  Alcotest.(check bool) "cleanup reports validation" true
    (Stm.tx_cleanup stm ~core:0 = Stm.Validation)

let test_stm_commit_revalidates_read_set () =
  let _, _, stm = setup () in
  Stm.tx_begin stm ~core:0;
  ignore (Stm.tx_load stm ~core:0 ~addr:64);
  Stm.tx_begin stm ~core:1;
  Stm.tx_store stm ~core:1 ~addr:64 ~value:5;
  Alcotest.(check bool) "writer commits" true (Stm.tx_commit stm ~core:1);
  (* no re-read: the stale snapshot must still be caught at commit *)
  Alcotest.(check bool) "reader fails commit validation" false
    (Stm.tx_commit stm ~core:0);
  Alcotest.(check bool) "reason is validation" true
    (Stm.tx_cleanup stm ~core:0 = Stm.Validation)

let test_hw_publication_dooms_stm_reader () =
  let _, htm, stm = setup () in
  Stm.tx_begin stm ~core:0;
  ignore (Stm.tx_load stm ~core:0 ~addr:64);
  (* a hardware commit publishes into the software read set; the
     on_publish hook stamps the stripe so validation must fail *)
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:1 ~addr:64 ~value:3 ~pc:1;
  Alcotest.(check bool) "hardware commit ok" true (Htm.tx_commit htm ~core:1);
  Alcotest.(check bool) "software reader fails validation" false
    (Stm.tx_commit stm ~core:0);
  Alcotest.(check bool) "reason is validation" true
    (Stm.tx_cleanup stm ~core:0 = Stm.Validation)

let test_stm_read_own_write () =
  let mem, _, stm = setup () in
  Memory.store mem 64 1;
  Stm.tx_begin stm ~core:0;
  Stm.tx_store stm ~core:0 ~addr:64 ~value:17;
  Alcotest.(check int) "buffered write read back" 17
    (Stm.tx_load stm ~core:0 ~addr:64);
  Alcotest.(check int) "memory untouched before commit" 1 (Memory.load mem 64);
  Alcotest.(check bool) "commit ok" true (Stm.tx_commit stm ~core:0);
  Alcotest.(check int) "published" 17 (Memory.load mem 64)

let test_disjoint_stm_commits_both_win () =
  let mem, _, stm = setup () in
  Stm.tx_begin stm ~core:0;
  Stm.tx_begin stm ~core:1;
  (* far-apart addresses so the stripes differ *)
  Stm.tx_store stm ~core:0 ~addr:64 ~value:1;
  Stm.tx_store stm ~core:1 ~addr:4096 ~value:2;
  Alcotest.(check bool) "first commits" true (Stm.tx_commit stm ~core:0);
  Alcotest.(check bool) "second commits" true (Stm.tx_commit stm ~core:1);
  Alcotest.(check int) "first value" 1 (Memory.load mem 64);
  Alcotest.(check int) "second value" 2 (Memory.load mem 4096)

let test_stripe_of_line_pinned () =
  (* pin the published stripe mapping: Fibonacci hashing of the line
     index — [line * 0x9E3779B1 land max_int mod nslots]. Version probes
     in a live tier must agree with the pure function. *)
  let expect ~nslots ~line =
    line * 0x9E3779B1 land max_int mod nslots
  in
  List.iter
    (fun (nslots, line) ->
      Alcotest.(check int)
        (Printf.sprintf "stripe nslots=%d line=%d" nslots line)
        (expect ~nslots ~line)
        (Stm.stripe_of_line ~nslots ~line))
    [ (256, 0); (256, 1); (256, 8); (256, 12345); (64, 7); (1, 999) ];
  (* concrete golden values so a hash change cannot slip through *)
  Alcotest.(check int) "golden line 1" 177 (Stm.stripe_of_line ~nslots:256 ~line:1);
  Alcotest.(check int) "golden line 2" 98 (Stm.stripe_of_line ~nslots:256 ~line:2);
  Alcotest.(check bool) "in range" true
    (List.for_all
       (fun line ->
         let s = Stm.stripe_of_line ~nslots:256 ~line in
         s >= 0 && s < 256)
       (List.init 1000 (fun i -> i * 13)));
  (* the live tier's version words are laid out by exactly this mapping *)
  let _, _, stm = setup () in
  let base = Stm.version_addr stm ~line:0 - Stm.stripe_of_line ~nslots:Stm.stripes ~line:0 in
  List.iter
    (fun line ->
      Alcotest.(check int)
        (Printf.sprintf "version_addr agrees for line %d" line)
        (base + Stm.stripe_of_line ~nslots:Stm.stripes ~line)
        (Stm.version_addr stm ~line))
    [ 0; 1; 5; 64; 4096 ]

(* --- machine-level: the htm-stm-lock ladder --------------------------- *)

let stm_policy ?(hw_retries = 1) ?(stm_retries = 4) () =
  Stx_policy.make
    ~fallback:
      (Stx_policy.Fallback.Stm_tier
         { retries = Some hw_retries; stm_retries })
    ()

let test_hot_counter_no_livelock () =
  (* every thread hammers one counter with a tiny hardware budget, so the
     bulk of the traffic funnels through the software tier; the attempt
     budget must bound every transaction's retries (no livelock) and the
     final count must be exact *)
  let threads = 8 and iters = 30 in
  let cfg = Config.with_cores threads Config.default in
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
  let stats =
    Machine.run ~seed:11 ~htm_policy:(stm_policy ()) ~cfg ~mode:Mode.Staggered_hw
      spec
  in
  let v = Memory.load (Option.get !memo) !Test_sim.counter_addr in
  Alcotest.(check int) "exact final count" (threads * iters) v;
  Alcotest.(check int) "every increment committed once" (threads * iters)
    stats.Stats.commits;
  Alcotest.(check bool) "software tier engaged" true
    (stats.Stats.stm_commits + stats.Stats.stm_aborts > 0)

let test_stm_disabled_leaves_counters_zero () =
  let _, v = Test_sim.run_counter_value ~threads:4 ~iters:20 ~mode:Mode.Staggered_hw () in
  Alcotest.(check int) "baseline still correct" 80 v;
  let stats = Test_sim.run_counter ~threads:4 ~iters:20 ~mode:Mode.Staggered_hw () in
  Alcotest.(check int) "no stm commits without the tier" 0 stats.Stats.stm_commits;
  Alcotest.(check int) "no stm aborts without the tier" 0 stats.Stats.stm_aborts;
  Alcotest.(check int) "no stm-conflict aborts without the tier" 0
    stats.Stats.stm_conflict_aborts

(* The whole ladder on one core: [flaky] aborts explicitly on every
   speculative attempt, hardware or software, so under htm-stm-lock:2:3
   it spends both hardware attempts, then all three software attempts,
   and commits only under the global lock. A hardware give-up switches
   tiers with no backoff; each retry inside a tier backs off first. *)
let test_explicit_aborts_walk_ladder () =
  let spec, value = Test_sim.flaky_spec () in
  let evs = ref [] in
  let on_event ~time:_ ev =
    let label =
      match ev with
      | Machine.Tx_begin { attempt; _ } -> Some (Printf.sprintf "begin %d" attempt)
      | Machine.Tx_abort { kind; _ } -> Some ("abort " ^ Machine.abort_label kind)
      | Machine.Tx_commit { irrevocable; _ } ->
        Some (if irrevocable then "commit irrevocable" else "commit")
      | Machine.Tx_irrevocable _ -> Some "irrevocable"
      | Machine.Backoff_start _ -> Some "backoff-start"
      | Machine.Backoff_end _ -> Some "backoff-end"
      | Machine.Stm_begin { attempt; _ } -> Some (Printf.sprintf "stm-begin %d" attempt)
      | Machine.Stm_abort { kind; _ } -> Some ("stm-abort " ^ Machine.stm_abort_label kind)
      | Machine.Stm_commit _ -> Some "stm-commit"
      | _ -> None
    in
    Option.iter (fun l -> evs := l :: !evs) label
  in
  let s =
    Machine.run ~htm_policy:(stm_policy ~hw_retries:2 ~stm_retries:3 ()) ~on_event
      ~cfg:(Config.with_cores 1 Config.default) ~mode:Mode.Baseline spec
  in
  Alcotest.(check (list string)) "event order"
    [
      "begin 0"; "abort explicit"; "backoff-start"; "backoff-end";
      "begin 1"; "abort explicit";
      "stm-begin 2"; "stm-abort stm_explicit"; "backoff-start"; "backoff-end";
      "stm-begin 3"; "stm-abort stm_explicit"; "backoff-start"; "backoff-end";
      "stm-begin 4"; "stm-abort stm_explicit";
      "irrevocable"; "begin 5"; "commit irrevocable";
    ]
    (List.rev !evs);
  Alcotest.(check (list (pair string int))) "counts"
    [
      ("commits", 1); ("aborts", 5); ("explicit_aborts", 2); ("stm_aborts", 3);
      ("stm_commits", 0); ("irrevocable_entries", 1); ("backoff_cycles", 204);
    ]
    [
      ("commits", s.Stats.commits); ("aborts", s.Stats.aborts);
      ("explicit_aborts", s.Stats.explicit_aborts); ("stm_aborts", s.Stats.stm_aborts);
      ("stm_commits", s.Stats.stm_commits);
      ("irrevocable_entries", s.Stats.irrevocable_entries);
      ("backoff_cycles", s.Stats.backoff_cycles);
    ];
  Alcotest.(check int) "final counter" 1 (value ())

(* trace + metrics reconciliation on real workloads under the hybrid *)

let reconcile_workload name =
  let w =
    match Stx_workloads.Registry.find name with
    | Some w -> w
    | None -> Alcotest.fail ("unknown workload " ^ name)
  in
  let threads = 4 in
  let mode = Mode.Staggered_hw in
  let spec = Stx_workloads.Workload.spec ~instrument:true ~scale:0.05 w in
  let cfg = Config.with_cores threads Config.default in
  let tr = Stx_trace.Trace.create ~threads () in
  let htm_policy = stm_policy ~hw_retries:2 () in
  let mc = Stx_metrics.Collect.create ~policy:htm_policy () in
  let s =
    Machine.run ~seed:3 ~htm_policy ~cfg ~mode
      ~on_event:(fun ~time ev ->
        Stx_metrics.Collect.handler mc ~time ev;
        Stx_trace.Trace.handler tr ~time ev)
      spec
  in
  (match Stx_trace.Trace.check tr s with
  | Ok () -> ()
  | Error es ->
    Alcotest.fail (name ^ ": trace check: " ^ String.concat "; " es));
  (match Stx_metrics.Collect.check (Stx_metrics.Collect.registry mc) s with
  | Ok () -> ()
  | Error es ->
    Alcotest.fail (name ^ ": metrics check: " ^ String.concat "; " es));
  s

let test_reconcile_list_hi () = ignore (reconcile_workload "list-hi")
let test_reconcile_intruder () = ignore (reconcile_workload "intruder")

let test_reconcile_genome_exercises_tier () =
  let s = reconcile_workload "genome" in
  Alcotest.(check bool) "software tier exercised" true
    (s.Stats.stm_commits + s.Stats.stm_aborts > 0)

(* the raw codec round-trips the software-tier events *)

let test_codec_roundtrip_stm_events () =
  let tr = Stx_trace.Trace.create ~threads:2 () in
  let ev time e = Stx_trace.Trace.handler tr ~time e in
  ev 0 (Machine.Tx_begin { tid = 0; ab = 1; attempt = 0; probe = false });
  ev 5
    (Machine.Tx_abort
       {
         tid = 0; ab = 1; kind = Machine.Stm_conflict; conf_line = Some 2;
         conf_pc = None; aggressor = Some 1; cycles = 5; rset = 1; wset = 0;
         probe = false;
       });
  ev 6 (Machine.Stm_begin { tid = 0; ab = 1; attempt = 1 });
  ev 20
    (Machine.Stm_abort
       {
         tid = 0; ab = 1; kind = Machine.Stm_validation; cycles = 14;
         vcycles = 4; rset = 2; wset = 1;
       });
  ev 21 (Machine.Stm_begin { tid = 0; ab = 1; attempt = 2 });
  ev 40
    (Machine.Stm_commit
       { tid = 0; ab = 1; cycles = 19; vcycles = 6; rset = 2; wset = 1 });
  let file = Filename.temp_file "stx-stm-trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (Stx_trace.Trace.write_events tr);
      let tr', _meta = Stx_trace.Trace.read_events ~file in
      Alcotest.(check bool) "events identical after round-trip" true
        (Stx_trace.Trace.events tr = Stx_trace.Trace.events tr'))

let suite =
  [
    Alcotest.test_case "stm commit publishes and dooms hw readers" `Quick
      test_stm_commit_publishes_and_dooms_hw;
    Alcotest.test_case "stm defers to a hw writer" `Quick
      test_stm_defers_to_hw_writer;
    Alcotest.test_case "opacity: doomed on re-read" `Quick
      test_stm_opacity_on_reread;
    Alcotest.test_case "commit re-validates the read set" `Quick
      test_stm_commit_revalidates_read_set;
    Alcotest.test_case "hw publication dooms stm reader" `Quick
      test_hw_publication_dooms_stm_reader;
    Alcotest.test_case "read own buffered write" `Quick test_stm_read_own_write;
    Alcotest.test_case "disjoint stm commits both win" `Quick
      test_disjoint_stm_commits_both_win;
    Alcotest.test_case "stripe_of_line mapping is pinned" `Quick
      test_stripe_of_line_pinned;
    Alcotest.test_case "hot counter: no livelock, exact count" `Quick
      test_hot_counter_no_livelock;
    Alcotest.test_case "stm counters stay zero without the tier" `Quick
      test_stm_disabled_leaves_counters_zero;
    Alcotest.test_case "explicit aborts walk the whole ladder" `Quick
      test_explicit_aborts_walk_ladder;
    Alcotest.test_case "list-hi reconciles under htm-stm-lock" `Quick
      test_reconcile_list_hi;
    Alcotest.test_case "intruder reconciles under htm-stm-lock" `Quick
      test_reconcile_intruder;
    Alcotest.test_case "genome reconciles and exercises the tier" `Quick
      test_reconcile_genome_exercises_tier;
    Alcotest.test_case "raw codec round-trips stm events" `Quick
      test_codec_roundtrip_stm_events;
  ]
