open Stx_core
open Stx_workloads
open Stx_harness

(* Harness tests run at a small scale and thread count to stay fast. *)

let ctx () = Exp.create ~seed:2 ~scale:0.08 ~threads:4 ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_exp_memoizes () =
  let c = ctx () in
  let w = Option.get (Registry.find "ssca2") in
  let a = Exp.run c w Mode.Baseline in
  let b = Exp.run c w Mode.Baseline in
  Alcotest.(check bool) "same object" true (a == b)

let test_exp_speedup_of_sequential_is_one () =
  let c = ctx () in
  let w = Option.get (Registry.find "ssca2") in
  let seq = Exp.sequential c w in
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0 (Exp.speedup c w seq)

let test_exp_rel_performance_baseline_is_one () =
  let c = ctx () in
  let w = Option.get (Registry.find "kmeans") in
  Alcotest.(check (float 1e-9)) "baseline ratio 1" 1.0
    (Exp.rel_performance c w Mode.Baseline)

(* An observed run is the bare run's twin, and each of its verdicts is
   what the stand-alone check of its capture, registry or series says. *)
let test_observe_matches_standalone_checks () =
  let stm =
    Stx_policy.make
      ~fallback:(Stx_policy.Fallback.Stm_tier { retries = None; stm_retries = 8 })
      ()
  in
  let cells =
    List.concat_map
      (fun name ->
        [ (name, Mode.Baseline, Stx_policy.default);
          (name, Mode.Staggered_hw, Stx_policy.default) ])
      [ "list-hi"; "genome"; "memcached" ]
    @ [ ("genome", Mode.Staggered_hw, stm) ]
  in
  let errors = function Ok () -> [] | Error es -> es in
  List.iter
    (fun (name, mode, policy) ->
      let w = Option.get (Registry.find name) in
      let spec () = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale:0.05 w in
      let label what =
        Printf.sprintf "%s/%s/%s: %s" name (Mode.to_string mode)
          (Stx_policy.label policy) what
      in
      let bare =
        Stx_sim.Machine.run ~seed:3 ~htm_policy:policy
          ~cfg:(Stx_machine.Config.with_cores 4 Stx_machine.Config.default)
          ~mode (spec ())
      in
      let o =
        Exp.observe ~trace:true ~metrics:true ~telemetry:1000 ~seed:3 ~policy
          ~threads:4 ~mode (spec ())
      in
      let stats = o.Exp.stats in
      let tr = Option.get o.Exp.trace in
      Alcotest.(check string) (label "observed stats = bare stats")
        (Test_exact.fingerprint bare) (Test_exact.fingerprint stats);
      let verdict what got standalone =
        Alcotest.(check (list string)) (label (what ^ " clean")) [] got;
        Alcotest.(check (list string)) (label (what ^ " = stand-alone")) standalone got
      in
      verdict "event stream" o.Exp.stream_errors
        (errors (Stx_trace.Trace.check tr stats));
      verdict "metrics" o.Exp.metrics_errors
        (errors
           (Stx_metrics.Collect.check
              (Stx_metrics.Collect.registry (Option.get o.Exp.metrics))
              stats));
      verdict "telemetry" o.Exp.telemetry_errors
        (Stx_telemetry.Series.diff (Option.get o.Exp.telemetry)
           (Stx_telemetry.Collect.of_trace ~window:1000
              ~horizon:stats.Stx_sim.Stats.total_cycles tr)))
    cells

let test_table1_renders () =
  let s = Reports.table1 (ctx ()) in
  List.iter
    (fun name -> Alcotest.(check bool) ("mentions " ^ name) true (contains s name))
    [ "list-hi"; "memcached"; "W/U"; "LA" ]

let test_table2_renders () =
  let s = Reports.table2 () in
  Alcotest.(check bool) "mentions L1" true (contains s "L1");
  Alcotest.(check bool) "mentions PC tag" true (contains s "PC tag")

let test_table4_covers_all_benchmarks () =
  let s = Reports.table4 (ctx ()) in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        ("mentions " ^ w.Workload.name)
        true
        (contains s w.Workload.name))
    Registry.all

let test_fig7_has_harmonic_mean () =
  let s = Reports.fig7 (ctx ()) in
  Alcotest.(check bool) "harmonic mean line" true (contains s "Harmonic mean")

let test_fig8_renders () =
  let s = Reports.fig8 (ctx ()) in
  Alcotest.(check bool) "abort cut column" true (contains s "abort cut")

(* The per-attempt table reads the policy-labelled histograms by label
   subset, so every column holds a number except where the histogram is
   empty: HTM never waits on an advisory lock. *)
let test_profile_latency_table () =
  let c = Exp.create ~seed:3 ~scale:0.05 ~threads:4 () in
  let s, errs = Reports.profile c (Option.get (Registry.find "genome")) in
  Alcotest.(check (list string)) "every cell reconciles" [] errs;
  let marker = "Per-attempt distributions" in
  let rec skip = function
    | l :: rest -> if contains l marker then rest else skip rest
    | [] -> Alcotest.fail "no per-attempt table"
  in
  let latency = skip (String.split_on_char '\n' s) in
  let cells mode =
    match
      List.find_opt (fun l -> contains l ("| " ^ mode ^ " ")) latency
    with
    | Some l -> List.map String.trim (String.split_on_char '|' l)
    | None -> Alcotest.failf "no %s row in:\n%s" mode s
  in
  let number what v =
    match int_of_string_opt v with
    | Some n when n > 0 -> ()
    | _ -> Alcotest.failf "%s reads %S, want a positive number" what v
  in
  (match cells "HTM" with
  | [ _; _; p50; p99; _; _; wait; _ ] ->
    number "HTM commit p50" p50;
    number "HTM commit p99" p99;
    Alcotest.(check string) "HTM takes no advisory lock" "-" wait
  | _ -> Alcotest.fail "HTM row shape");
  match cells "Staggered" with
  | [ _; _; _; _; _; _; wait; _ ] -> number "Staggered lock-wait p99" wait
  | _ -> Alcotest.fail "Staggered row shape"

let test_anchor_tables_report () =
  let w = Option.get (Registry.find "genome") in
  let s = Reports.anchor_tables w in
  Alcotest.(check bool) "has anchors" true (contains s "unified anchor table")

let test_fig1_timelines () =
  let s = Reports.fig1 () in
  Alcotest.(check bool) "has lanes" true (contains s "t0 ");
  Alcotest.(check bool) "shows commits" true (contains s "C");
  Alcotest.(check bool) "legend" true (contains s "advisory lock")

module Trace = Stx_trace.Trace

let begin_ev tid time tl =
  Trace.handler tl ~time
    (Stx_sim.Machine.Tx_begin { tid; ab = 0; attempt = 0; probe = false })

let commit_ev ?(irrevocable = false) tid time cycles tl =
  Trace.handler tl ~time
    (Stx_sim.Machine.Tx_commit
       { tid; ab = 0; cycles; irrevocable; rset = 0; wset = 0; probe = false })

let abort_ev tid time cycles tl =
  Trace.handler tl ~time
    (Stx_sim.Machine.Tx_abort
       {
         tid;
         ab = 0;
         kind = Stx_sim.Machine.Conflict;
         conf_line = None;
         conf_pc = None;
         aggressor = None;
         cycles;
         rset = 0;
         wset = 0;
         probe = false;
       })

(* the rendered lane body for one thread, without the "tN |...|" frame *)
let lane s tid =
  let prefix = Printf.sprintf "t%-2d |" tid in
  match
    List.find_opt
      (fun l -> String.length l > String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' s)
  with
  | Some l ->
    String.sub l (String.length prefix) (String.length l - String.length prefix - 1)
  | None -> Alcotest.failf "no lane for thread %d in:\n%s" tid s

let test_timeline_render_basics () =
  let tl = Trace.create ~threads:2 () in
  begin_ev 0 0 tl;
  commit_ev 0 50 50 tl;
  begin_ev 1 20 tl;
  abort_ev 1 40 20 tl;
  let s = Timeline.render ~width:50 ~until_time:100 tl in
  Alcotest.(check bool) "t0 lane" true (contains s "t0 ");
  Alcotest.(check bool) "t1 lane" true (contains s "t1 ");
  Alcotest.(check bool) "commit marker" true (contains (lane s 0) "C");
  Alcotest.(check bool) "abort marker" true (contains (lane s 1) "X");
  (* what follows an abort is backoff, not more transaction *)
  Alcotest.(check bool) "post-abort backoff" true (contains (lane s 1) "b");
  Alcotest.(check bool) "post-abort not in-tx" false (contains (lane s 1) "Xb=")

let test_timeline_windowing () =
  let tl = Trace.create ~threads:1 () in
  begin_ev 0 5 tl;
  commit_ev 0 10 5 tl;
  (* both events precede the window: they may steer the lane state, but
     must not paint markers at column 0 *)
  let s = Timeline.render ~width:40 ~from_time:100 ~until_time:200 tl in
  let l = lane s 0 in
  Alcotest.(check bool) "no pre-window commit marker" false (contains l "C");
  Alcotest.(check string) "idle lane" (String.make 40 '.') l;
  (* a begin before the window opens the window in-tx, still without
     painting a marker *)
  let tl2 = Trace.create ~threads:1 () in
  begin_ev 0 5 tl2;
  commit_ev 0 150 145 tl2;
  let s2 = Timeline.render ~width:40 ~from_time:100 ~until_time:200 tl2 in
  let l2 = lane s2 0 in
  Alcotest.(check char) "window opens in-tx" '=' l2.[0];
  Alcotest.(check bool) "commit inside window marked" true (contains l2 "C")

let test_timeline_irrevocable_and_timeout () =
  let tl = Trace.create ~threads:1 () in
  let ev = Trace.handler tl in
  begin_ev 0 0 tl;
  abort_ev 0 10 10 tl;
  ev ~time:20 (Stx_sim.Machine.Tx_irrevocable { tid = 0; ab = 0 });
  begin_ev 0 22 tl;
  commit_ev ~irrevocable:true 0 80 58 tl;
  let s = Timeline.render ~width:50 ~until_time:100 tl in
  let l = lane s 0 in
  Alcotest.(check bool) "irrevocable background" true (contains l "I");
  Alcotest.(check bool) "backoff/global-spin stall shown" true (contains l "b");
  (* the irrevocable attempt paints 'I' right up to its commit, not '=' *)
  Alcotest.(check char) "irrevocable up to the commit" 'I' l.[String.index l 'C' - 1];
  (* lock timeouts keep their own marker instead of masquerading as Begin *)
  let tl2 = Trace.create ~threads:1 () in
  let ev2 = Trace.handler tl2 in
  begin_ev 0 0 tl2;
  ev2 ~time:20 (Stx_sim.Machine.Lock_waiting { tid = 0; lock = 3 });
  ev2 ~time:40 (Stx_sim.Machine.Lock_timeout { tid = 0; lock = 3 });
  commit_ev 0 80 80 tl2;
  let s2 = Timeline.render ~width:50 ~until_time:100 tl2 in
  let l2 = lane s2 0 in
  Alcotest.(check bool) "wait marker" true (contains l2 "w");
  Alcotest.(check bool) "timeout marker" true (contains l2 "T")

let test_ablation_reports_render () =
  (* the cheapest ablations at tiny scale; just exercise the rendering *)
  let s = Ablations.pc_tag_width ~seed:2 ~scale:0.05 () in
  Alcotest.(check bool) "tag table" true (contains s "tag bits")

let test_scaling_report () =
  let c = Exp.create ~seed:2 ~scale:0.05 ~threads:4 () in
  let w = Option.get (Registry.find "ssca2") in
  let s = Reports.scaling c w in
  Alcotest.(check bool) "has thread column" true (contains s "Threads")

let bounded_8_4 = Stx_policy.Capacity.Bounded { read_lines = 8; write_lines = 4 }

(* timestamp+bounded:8:4+backoff *)
let timestamp_bounded_backoff =
  Stx_policy.make ~resolution:Stx_policy.Resolution.Timestamp
    ~capacity:bounded_8_4
    ~fallback:
      (Stx_policy.Fallback.Backoff { retries = 10; base = 16; max_exp = 8; seed = 0 })
    ()

(* the seed-averaged Figure 7 runs every seed under the context's policy
   bundle, as the single-seed Figure 7 does *)
let test_fig7_repeated_uses_policy () =
  let render policy =
    Reports.fig7_repeated ~seeds:[ 2 ]
      (Exp.create ~scale:0.05 ~threads:4 ~policy ())
  in
  Alcotest.(check bool) "policy bundle reaches every seed" false
    (render Stx_policy.default = render timestamp_bounded_backoff)

(* hotspots and Table 3's naive-instrumentation run are simulated under
   the context's policy bundle too: the naive run is compared against
   plain runs made under that bundle *)
let test_hotspots_and_table3_use_policy () =
  let ctx policy = Exp.create ~scale:0.05 ~threads:4 ~policy () in
  let genome = Option.get (Registry.find "genome") in
  Alcotest.(check bool) "hotspots see the bundle" false
    (fst (Reports.hotspots (ctx Stx_policy.default) genome)
    = fst (Reports.hotspots (ctx timestamp_bounded_backoff) genome));
  let pct cell = Scanf.sscanf (String.trim cell) "%f%%" Fun.id in
  let rows = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char '|' line with
      | [ _; name; _; _; _; _; time_inc; naive_inc; _; _ ]
        when Registry.find (String.trim name) <> None ->
        incr rows;
        if pct naive_inc < pct time_inc then
          Alcotest.failf "%s: naive inc %s below time inc %s" (String.trim name)
            (String.trim naive_inc) (String.trim time_inc)
      | _ -> ())
    (String.split_on_char '\n'
       (Reports.table3 (ctx (Stx_policy.make ~capacity:bounded_8_4 ()))));
  Alcotest.(check int) "a row per benchmark" (List.length Registry.all) !rows

(* --- htmlreport -------------------------------------------------------- *)

let render_report () =
  let w = Option.get (Registry.find "list-hi") in
  let seed = 3 and scale = 0.05 and threads = 4 in
  let mode = Mode.Staggered_hw in
  let policy = Stx_policy.default in
  let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
  let cfg = Stx_machine.Config.with_cores threads Stx_machine.Config.default in
  let tr = Stx_trace.Trace.create ~threads () in
  let tc = Stx_telemetry.Collect.create ~window:1000 ~threads () in
  let mc = Stx_metrics.Collect.create ~policy () in
  let stats =
    Stx_sim.Machine.run ~seed ~htm_policy:policy ~cfg ~mode
      ~on_event:(fun ~time ev ->
        Stx_metrics.Collect.handler mc ~time ev;
        Stx_trace.Trace.handler tr ~time ev;
        Stx_telemetry.Collect.handler tc ~time ev)
      spec
  in
  let series =
    Stx_telemetry.Collect.finalize ~horizon:stats.Stx_sim.Stats.total_cycles tc
  in
  Htmlreport.render
    {
      Htmlreport.workload = w.Workload.name;
      mode;
      seed;
      scale;
      threads;
      policy;
      series;
      episodes = Stx_telemetry.Episodes.detect series;
      stats;
      registry = Stx_metrics.Collect.registry mc;
      attribution = Stx_trace.Trace.abort_attribution tr;
      ab_name = string_of_int;
    }

let test_htmlreport_deterministic () =
  let a = render_report () and b = render_report () in
  Alcotest.(check bool) "byte-identical across renders" true (a = b)

let test_htmlreport_self_contained () =
  let html = render_report () in
  List.iter
    (fun marker ->
      Alcotest.(check bool) ("no external reference: " ^ marker) false
        (contains html marker))
    [ "http://"; "https://"; "<script"; "<link"; "src=" ];
  List.iter
    (fun marker ->
      Alcotest.(check bool) ("section present: " ^ marker) true
        (contains html marker))
    [
      "<!DOCTYPE html>"; "<style>"; "<svg"; "Time series"; "Episodes";
      "Conflict hot spots"; "phase profile"; "</html>";
    ]

(* --- the zero-allocation budget ---------------------------------------
   Every workload through the interpreter must stay under 64 minor-heap
   words per simulated instruction, measured in Baseline mode at 16
   cores and scale 0.2 with machine construction amortised over the run
   (the workload is compiled outside the measured window). The core
   allocates a few words per instruction; a pooled-structure regression
   (a closure, an option, a Hashtbl creeping back into the hot path)
   shows up here as orders of magnitude, not noise. *)

let minor_words_budget = 64.

let minor_words_per_inst w =
  let spec = Workload.spec ~instrument:false ~scale:0.2 w in
  let cfg = Stx_machine.Config.with_cores 16 Stx_machine.Config.default in
  let m0 = Gc.minor_words () in
  let s = Stx_sim.Machine.run ~seed:1 ~cfg ~mode:Mode.Baseline spec in
  let dm = Gc.minor_words () -. m0 in
  (s.Stx_sim.Stats.insts, dm /. float_of_int (max 1 s.Stx_sim.Stats.insts))

let test_allocation_budget () =
  List.iter
    (fun w ->
      let name = w.Workload.name in
      let insts, words = minor_words_per_inst w in
      Alcotest.(check bool) (name ^ ": instructions simulated") true (insts > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words/instruction under the %.0f budget" name
           words minor_words_budget)
        true (words < minor_words_budget))
    Registry.all

let suite =
  [
    Alcotest.test_case "exp memoizes runs" `Quick test_exp_memoizes;
    Alcotest.test_case "observed runs match bare runs and stand-alone checks"
      `Quick test_observe_matches_standalone_checks;
    Alcotest.test_case "allocation budget per simulated event" `Slow
      test_allocation_budget;
    Alcotest.test_case "sequential speedup is 1" `Quick
      test_exp_speedup_of_sequential_is_one;
    Alcotest.test_case "baseline relative performance is 1" `Quick
      test_exp_rel_performance_baseline_is_one;
    Alcotest.test_case "table1 renders" `Slow test_table1_renders;
    Alcotest.test_case "table2 renders" `Quick test_table2_renders;
    Alcotest.test_case "table4 covers all benchmarks" `Slow
      test_table4_covers_all_benchmarks;
    Alcotest.test_case "fig7 has harmonic mean" `Slow test_fig7_has_harmonic_mean;
    Alcotest.test_case "fig8 renders" `Slow test_fig8_renders;
    Alcotest.test_case "anchor tables report" `Quick test_anchor_tables_report;
    Alcotest.test_case "profile latency table filled" `Quick
      test_profile_latency_table;
    Alcotest.test_case "scaling report" `Quick test_scaling_report;
    Alcotest.test_case "fig7-avg runs under the policy" `Quick
      test_fig7_repeated_uses_policy;
    Alcotest.test_case "hotspots and table3 run under the policy" `Quick
      test_hotspots_and_table3_use_policy;
    Alcotest.test_case "fig1 timelines" `Quick test_fig1_timelines;
    Alcotest.test_case "timeline render basics" `Quick test_timeline_render_basics;
    Alcotest.test_case "timeline windowing" `Quick test_timeline_windowing;
    Alcotest.test_case "timeline irrevocable and timeout" `Quick
      test_timeline_irrevocable_and_timeout;
    Alcotest.test_case "ablation renders" `Slow test_ablation_reports_render;
    Alcotest.test_case "html report is deterministic" `Quick
      test_htmlreport_deterministic;
    Alcotest.test_case "html report is self-contained" `Quick
      test_htmlreport_self_contained;
  ]
