open Stx_metrics

(* The metrics layer rests on three contracts: histograms merge like
   Stats.merge (associative, order-independent), the registry renders
   deterministically, and the online collector is byte-equivalent to
   replaying the same run's trace capture. Each section below pins one
   of them. *)

let hist_of l =
  let h = Hist.create () in
  List.iter (Hist.add h) l;
  h

(* --- histogram units --------------------------------------------------- *)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check bool) "empty" true (Hist.is_empty h);
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check int) "sum" 0 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 0 (Hist.max_value h);
  Alcotest.(check int) "quantile" 0 (Hist.p99 h);
  Alcotest.(check (float 0.)) "mean" 0. (Hist.mean h)

(* every telemetry window carries a sojourn sketch that only serving
   runs fill, so an empty histogram must not hold its bucket arrays *)
let test_hist_create_allocates_little () =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Hist.create ()));
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f words" words) true (words < 16.)

let test_hist_negative_rejected () =
  let h = Hist.create () in
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Hist.add: negative value") (fun () -> Hist.add h (-1))

let test_hist_exact_fields () =
  let h = hist_of [ 5; 0; 17; 5; 1024 ] in
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 1051 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 1024 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 210.2 (Hist.mean h)

let test_hist_single_value_quantiles () =
  let h = hist_of [ 42 ] in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%g collapses to the one value" q)
        42 (Hist.quantile h q))
    [ 0.; 0.5; 0.9; 0.99; 1. ]

let test_hist_quantile_clamped_to_extrema () =
  (* 100 observations of 3 and one of 200: p50's covering bucket is
     [2..3] whose upper bound is 3; p100 must be exactly max *)
  let h = hist_of (200 :: List.init 100 (fun _ -> 3)) in
  Alcotest.(check int) "p50" 3 (Hist.p50 h);
  Alcotest.(check int) "q=1 is max" 200 (Hist.quantile h 1.);
  Alcotest.(check int) "q=0 is >= min" 3 (Hist.quantile h 0.)

(* --- histogram properties ---------------------------------------------- *)

let values = QCheck.(list_of_size (QCheck.Gen.int_range 0 80) (int_range 0 100_000))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:100
    (QCheck.triple values values values) (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      Hist.equal
        (Hist.merge (Hist.merge ha hb) hc)
        (Hist.merge ha (Hist.merge hb hc)))

let prop_merge_is_concat =
  QCheck.Test.make ~name:"merge = histogram of concatenation" ~count:100
    (QCheck.pair values values) (fun (a, b) ->
      Hist.equal (Hist.merge (hist_of a) (hist_of b)) (hist_of (a @ b)))

let prop_bucket_boundaries =
  QCheck.Test.make ~name:"every value inside its bucket's bounds" ~count:500
    QCheck.(int_range 0 1_000_000_000)
    (fun v ->
      let k = Hist.bucket_index v in
      Hist.bucket_lower k <= v && v <= Hist.bucket_upper k)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:100
    (QCheck.triple values (QCheck.float_range 0. 1.) (QCheck.float_range 0. 1.))
    (fun (l, q1, q2) ->
      l = []
      ||
      let h = hist_of l in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Hist.quantile h lo <= Hist.quantile h hi)

let prop_quantile_within_bucket_of_truth =
  QCheck.Test.make ~name:"quantile within one bucket of the order statistic"
    ~count:100
    QCheck.(pair values (float_range 0. 1.))
    (fun (l, q) ->
      l = []
      ||
      let h = hist_of l in
      let sorted = List.sort compare l in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      let got = Hist.quantile h q in
      Hist.bucket_index got = Hist.bucket_index truth
      || got >= Hist.min_value h && got <= Hist.max_value h)

let prop_quantile_is_observed =
  (* the per-bucket observed max guarantees a quantile is never a bucket
     bound nobody recorded — it is always one of the added values *)
  QCheck.Test.make ~name:"quantile is always an observed value" ~count:200
    QCheck.(pair values (float_range 0. 1.))
    (fun (l, q) ->
      l = []
      ||
      let h = hist_of l in
      List.mem (Hist.quantile h q) l)

(* --- json -------------------------------------------------------------- *)

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Str "x \"quoted\" \\ slash \n tab \t");
        ("c", Json.List [ Json.Null; Json.Bool true; Json.Float 2.5 ]);
        ("d", Json.Obj [ ("nested", Json.Int (-7)) ]);
      ]
  in
  let s = Json.to_string doc in
  match Json.parse s with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok doc' ->
    Alcotest.(check string) "print-parse-print stable" s (Json.to_string doc')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "{\"a\" 1}"; "\"\\x\"" ]

let test_json_int_float_distinction () =
  match Json.parse "{\"i\":3,\"f\":3.0}" with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Json.member "i" doc with
    | Some (Json.Int 3) -> ()
    | _ -> Alcotest.fail "3 should parse as Int");
    (match Json.member "f" doc with
    | Some (Json.Float f) -> Alcotest.(check (float 0.)) "float" 3.0 f
    | _ -> Alcotest.fail "3.0 should parse as Float")

(* --- registry ---------------------------------------------------------- *)

let sample_registry () =
  let r = Registry.create () in
  Registry.inc r "stx_commits" [];
  Registry.inc r ~by:4 "stx_commits" [];
  Registry.set_gauge r "stx_depth" [ ("q", "a") ] 7;
  Registry.set_gauge r "stx_depth" [ ("q", "a") ] 3;
  List.iter (Registry.observe r "stx_lat" [ ("outcome", "commit") ]) [ 0; 5; 6 ];
  r

let test_registry_semantics () =
  let r = sample_registry () in
  Alcotest.(check int) "counter sums" 5 (Registry.counter_value r "stx_commits" []);
  Alcotest.(check int) "gauge high-water" 7
    (Registry.gauge_value r "stx_depth" [ ("q", "a") ]);
  Alcotest.(check int) "absent counter is 0" 0
    (Registry.counter_value r "nope" []);
  (match Registry.histogram r "stx_lat" [ ("outcome", "commit") ] with
  | Some h -> Alcotest.(check int) "hist count" 3 (Hist.count h)
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check int) "cardinality" 3 (Registry.cardinality r)

let test_registry_label_order_irrelevant () =
  let r = Registry.create () in
  Registry.inc r "m" [ ("a", "1"); ("b", "2") ];
  Registry.inc r "m" [ ("b", "2"); ("a", "1") ];
  Alcotest.(check int) "one cell" 1 (Registry.cardinality r);
  Alcotest.(check int) "both increments landed" 2
    (Registry.counter_value r "m" [ ("b", "2"); ("a", "1") ])

let test_registry_rejects_bad_names () =
  let r = Registry.create () in
  Alcotest.check_raises "bad metric name"
    (Invalid_argument "Registry: bad metric name \"0bad\"") (fun () ->
      Registry.inc r "0bad" []);
  Alcotest.check_raises "empty label value"
    (Invalid_argument "Registry: bad label value \"\"") (fun () ->
      Registry.inc r "m" [ ("k", "") ]);
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Registry: duplicate label \"k\"") (fun () ->
      Registry.inc r "m" [ ("k", "1"); ("k", "2") ])

let test_registry_type_clash_raises () =
  let r = Registry.create () in
  Registry.inc r "m" [];
  Alcotest.check_raises "counter used as histogram"
    (Invalid_argument "Registry: m is a counter, used as a histogram")
    (fun () -> Registry.observe r "m" [] 1)

(* a handle is the keyed writers' own path resolved ahead: it creates
   its series at its first write, shares the cell a keyed write to the
   same key reaches, and meets a type clash where a keyed write would *)
let test_registry_handles () =
  let r = sample_registry () in
  let before = Registry.to_json_string r in
  let c = Registry.counter r "stx_fresh" [ ("b", "2"); ("a", "1") ] in
  ignore (Registry.hist r "stx_fresh_hist" []);
  Alcotest.(check string) "unwritten handles leave the snapshot alone" before
    (Registry.to_json_string r);
  Registry.add c 0;
  let keyed = sample_registry () in
  Registry.inc keyed ~by:0 "stx_fresh" [ ("a", "1"); ("b", "2") ];
  Alcotest.(check string) "add 0 creates a zero counter, as inc ~by:0 does"
    (Registry.to_json_string keyed) (Registry.to_json_string r);
  let shared = Registry.counter r "stx_commits" [] in
  Registry.add shared 2;
  Registry.inc r "stx_commits" [];
  Registry.add shared 1;
  Alcotest.(check int) "handle and keyed writes share one cell" 9
    (Registry.counter_value r "stx_commits" []);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Registry: negative increment") (fun () -> Registry.add shared (-1));
  let lat = Registry.hist r "stx_lat" [ ("outcome", "commit") ] in
  Registry.record lat 7;
  Registry.observe r "stx_lat" [ ("outcome", "commit") ] 8;
  (match Registry.histogram r "stx_lat" [ ("outcome", "commit") ] with
  | Some h -> Alcotest.(check int) "one histogram" 5 (Hist.count h)
  | None -> Alcotest.fail "histogram missing");
  let clash = Registry.hist r "stx_commits" [] in
  Alcotest.check_raises "type clash at the first write"
    (Invalid_argument "Registry: stx_commits is a counter, used as a histogram")
    (fun () -> Registry.record clash 1)

let test_registry_merge () =
  let a = sample_registry () and b = sample_registry () in
  Registry.set_gauge b "stx_depth" [ ("q", "a") ] 11;
  let m = Registry.merge a b in
  Alcotest.(check int) "counters sum" 10 (Registry.counter_value m "stx_commits" []);
  Alcotest.(check int) "gauges max" 11
    (Registry.gauge_value m "stx_depth" [ ("q", "a") ]);
  (match Registry.histogram m "stx_lat" [ ("outcome", "commit") ] with
  | Some h ->
    Alcotest.(check int) "hists merge" 6 (Hist.count h);
    Alcotest.(check int) "hist sum" 22 (Hist.sum h)
  | None -> Alcotest.fail "merged histogram missing");
  (* the merge is fresh: mutating it must not touch the inputs *)
  Registry.inc m "stx_commits" [];
  Alcotest.(check int) "input untouched" 5
    (Registry.counter_value a "stx_commits" [])

let test_registry_equal_and_diff () =
  let a = sample_registry () and b = sample_registry () in
  Alcotest.(check bool) "equal" true (Registry.equal a b);
  Alcotest.(check (list string)) "no diff" [] (Registry.diff a b);
  Registry.inc b "stx_commits" [];
  Alcotest.(check bool) "unequal after inc" false (Registry.equal a b);
  Alcotest.(check (list string)) "diff names the counter"
    [ "stx_commits{-}: counter 5 vs 6" ] (Registry.diff a b)

let test_registry_json_golden () =
  Alcotest.(check string) "snapshot"
    ("{\"schema\":\"stx-metrics\",\"version\":1,\"metrics\":["
   ^ "{\"name\":\"stx_commits\",\"labels\":{},\"type\":\"counter\",\"value\":5},"
   ^ "{\"name\":\"stx_depth\",\"labels\":{\"q\":\"a\"},\"type\":\"gauge\",\"value\":7},"
   ^ "{\"name\":\"stx_lat\",\"labels\":{\"outcome\":\"commit\"},\"type\":\"histogram\","
   ^ "\"count\":3,\"sum\":11,\"min\":0,\"max\":6,\"buckets\":[[0,1,0],[3,2,6]]}]}")
    (Registry.to_json_string (sample_registry ()))

(* --- online vs trace replay, every workload x mode --------------------- *)

(* same tiny-but-contended configuration as test_trace.ml *)
let seed = 3
let scale = 0.05
let threads = 4

let all_modes =
  [
    Stx_core.Mode.Baseline;
    Stx_core.Mode.Addr_only;
    Stx_core.Mode.Staggered_sw;
    Stx_core.Mode.Staggered_hw;
  ]

let measured = Hashtbl.create 64

let observed (w : Stx_workloads.Workload.t) mode =
  let key = (w.Stx_workloads.Workload.name, mode) in
  match Hashtbl.find_opt measured key with
  | Some r -> r
  | None ->
    let spec =
      Stx_workloads.Workload.spec
        ~instrument:(Stx_core.Mode.uses_alps mode)
        ~scale w
    in
    let tr = Stx_trace.Trace.create ~threads () in
    let cfg = Stx_machine.Config.with_cores threads Stx_machine.Config.default in
    let c = Collect.create () in
    let stats =
      Stx_sim.Machine.run ~seed ~cfg ~mode
        ~on_event:(fun ~time ev ->
          Collect.handler c ~time ev;
          Stx_trace.Trace.handler tr ~time ev)
        spec
    in
    let r = (stats, c, tr) in
    Hashtbl.add measured key r;
    r

let run_with_trace w mode =
  let stats, c, tr = observed w mode in
  (stats, Collect.registry c, tr)

(* the registry as exported: the collector's series plus the counters
   written from the run's stats *)
let exported w mode =
  let stats, c, _ = observed w mode in
  (stats, Collect.export c stats)

let test_online_equals_replay () =
  List.iter
    (fun (w : Stx_workloads.Workload.t) ->
      List.iter
        (fun mode ->
          let cell =
            Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
              (Stx_core.Mode.to_string mode)
          in
          let _, reg, tr = run_with_trace w mode in
          let replayed = Collect.of_trace tr in
          match Registry.diff reg replayed with
          | [] -> ()
          | errs ->
            Alcotest.fail
              (cell ^ ": online and replayed registries diverge:\n  "
             ^ String.concat "\n  " errs))
        all_modes)
    Stx_workloads.Registry.all

let test_collect_check_reconciles () =
  List.iter
    (fun (w : Stx_workloads.Workload.t) ->
      List.iter
        (fun mode ->
          let cell =
            Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
              (Stx_core.Mode.to_string mode)
          in
          let s, reg, _ = run_with_trace w mode in
          match Collect.check reg s with
          | Ok () -> ()
          | Error errs ->
            Alcotest.fail
              (cell ^ ": registry fails to reconcile with stats:\n  "
             ^ String.concat "\n  " errs))
        all_modes)
    Stx_workloads.Registry.all

let test_exported_merge_matches_stats_merge () =
  let sa, ra = exported (List.hd Stx_workloads.Registry.all) Stx_core.Mode.Baseline in
  let sb, rb = exported (List.hd Stx_workloads.Registry.all) Stx_core.Mode.Staggered_hw in
  let stats = Stx_sim.Stats.merge sa sb and reg = Registry.merge ra rb in
  Alcotest.(check int) "commits sum"
    (sa.Stx_sim.Stats.commits + sb.Stx_sim.Stats.commits)
    stats.Stx_sim.Stats.commits;
  (* both runs carry the default bundle's policy label: read the
     counters under it, not with an exact empty label set *)
  let commits r =
    Registry.counter_value r "stx_commits"
      [ ("policy", Stx_policy.label Stx_policy.default) ]
  in
  let sum = commits ra + commits rb in
  Alcotest.(check bool) "registry commits nonzero" true (sum > 0);
  Alcotest.(check int) "registry counter sums" sum (commits reg);
  Alcotest.(check int) "registry agrees with merged stats"
    stats.Stx_sim.Stats.commits (commits reg)

(* --- GC pressure stamped at export time -------------------------------- *)

let test_gcstats_stamp () =
  let reg = Registry.create () in
  Registry.inc reg "stx_commits" [];
  let out = Gcstats.stamp reg in
  Alcotest.(check bool) "minor words counted" true
    (Registry.counter_value out "stx_gc_minor_words" [] > 0);
  Alcotest.(check bool) "major collections counted" true
    (Registry.counter_value out "stx_gc_major_collections" [] >= 0);
  Alcotest.(check int) "existing series carried over" 1
    (Registry.counter_value out "stx_commits" []);
  (* the live registry stays clean: online/replay equality depends on it *)
  Alcotest.(check int) "argument registry untouched" 0
    (Registry.counter_value reg "stx_gc_minor_words" []);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "in the JSON snapshot" true
    (contains (Registry.to_json_string out) "stx_gc_minor_words")

(* quick_stat's minor_words counts the calling domain only up to its
   last minor collection, so [stamp] flushes the minor heap first: words
   allocated since the last collection must show *)
let test_gcstats_counts_unflushed_words () =
  let minor_words () =
    Registry.counter_value (Gcstats.stamp (Registry.create ())) "stx_gc_minor_words" []
  in
  Gc.minor ();
  let before = minor_words () in
  (* two words per block, a quarter of the minor heap in all *)
  let blocks = (Gc.get ()).Gc.minor_heap_size / 8 in
  for i = 1 to blocks do
    ignore (Sys.opaque_identity (ref i))
  done;
  let rose = minor_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "rose by %d words for %d allocated" rose (2 * blocks))
    true
    (rose >= 2 * blocks)

(* the books do not balance a commit without its begin: its cycles stay
   out of the phase profile, so Collect.check fails, and Trace.check
   names the violation *)
let test_unpaired_commit_fails_both_checks () =
  let module M = Stx_sim.Machine in
  let module S = Stx_sim.Stats in
  let tr = Stx_trace.Trace.create ~threads:1 () in
  Stx_trace.Trace.handler tr ~time:10
    (M.Tx_commit
       { tid = 0; ab = 0; cycles = 10; irrevocable = false; rset = 1; wset = 1; probe = false });
  let stats = S.create ~threads:1 in
  stats.S.commits <- 1;
  stats.S.useful_cycles <- 10;
  stats.S.tx_mode_cycles <- 10;
  stats.S.thread_cycles <- 10;
  (S.ab stats 0).S.ab_commits <- 1;
  let has what = function
    | Ok () -> false
    | Error es ->
      List.exists
        (fun e ->
          let n = String.length what in
          let rec at i = i + n <= String.length e && (String.sub e i n = what || at (i + 1)) in
          at 0)
        es
  in
  Alcotest.(check bool) "metrics: phase identity broken" true
    (has "phase useful identity" (Collect.check (Collect.of_trace tr) stats));
  Alcotest.(check bool) "trace: no open attempt" true
    (has "commit at 10 with no open attempt" (Stx_trace.Trace.check tr stats))

(* --- the phase profile: the paper's claim, measured -------------------- *)

let genome () =
  match Stx_workloads.Registry.find "genome" with
  | Some w -> w
  | None -> Alcotest.fail "genome workload missing"

let test_baseline_has_no_suffix () =
  let _, reg, _ = run_with_trace (genome ()) Stx_core.Mode.Baseline in
  Alcotest.(check int) "no advisory locks, no serialized suffix" 0
    (Collect.phase_total reg Collect.Suffix);
  Alcotest.(check int) "nor lock wait" 0
    (Collect.phase_total reg Collect.Lock_wait);
  Alcotest.(check bool) "but committed prefix cycles exist" true
    (Collect.phase_total reg Collect.Prefix > 0)

let test_staggered_has_nonzero_suffix () =
  let _, reg, _ = run_with_trace (genome ()) Stx_core.Mode.Staggered_hw in
  Alcotest.(check bool) "serialized suffix present" true
    (Collect.phase_total reg Collect.Suffix > 0);
  Alcotest.(check bool) "speculative prefix still present" true
    (Collect.phase_total reg Collect.Prefix > 0)

(* --- the benchmark's gated fields, read by label subset -----------------
   Every series carries the run's policy label, so exact-label reads see
   nothing; the commit rate, abort rate and p99 commit latency the
   benchmark gates (and the suite goldens pin) must read nonzero on a
   workload that commits and aborts, or a check on them passes
   vacuously. *)
let test_bench_gated_fields_nonzero () =
  let w = Option.get (Stx_workloads.Registry.find "list-hi") in
  let s, reg, _ = run_with_trace w Stx_core.Mode.Baseline in
  Alcotest.(check bool) "commits" true (s.Stx_sim.Stats.commits > 0);
  Alcotest.(check bool) "aborts" true (s.Stx_sim.Stats.aborts > 0);
  Alcotest.(check bool) "p99 commit latency" true
    (Hist.p99
       (Collect.histogram reg "stx_tx_latency_cycles"
          [ ("outcome", "commit") ])
    > 0)

(* --- json against malformed input --------------------------------------- *)

(* a real snapshot, truncated, with one byte flipped, or with a span
   repeated in place: the parser must end in [Ok] or [Error], never raise *)
let snapshot =
  lazy
    (let _, reg, _ = run_with_trace (genome ()) Stx_core.Mode.Staggered_hw in
     Registry.to_json_string reg)

let mutate s (kind, a, b, c) =
  let n = String.length s in
  match kind with
  | 0 -> String.sub s 0 (a mod (n + 1))
  | 1 ->
    let bytes = Bytes.of_string s in
    Bytes.set bytes (a mod n) (Char.chr (b land 255));
    Bytes.to_string bytes
  | _ ->
    let i = a mod n in
    let span = String.sub s i (1 + (b mod min 64 (n - i))) in
    String.sub s 0 i
    ^ String.concat "" (List.init (1 + (c mod 8)) (fun _ -> span))
    ^ String.sub s i (n - i)

let prop_json_mutated_snapshot =
  QCheck.Test.make ~name:"json: mutated snapshots end in Ok or Error"
    ~count:300
    QCheck.(quad (int_bound 2) (int_bound (1 lsl 30)) (int_bound 255) (int_bound 255))
    (fun m ->
      match Json.parse (mutate (Lazy.force snapshot) m) with
      | Ok _ | Error _ -> true)

let test_json_nesting_bounded () =
  Alcotest.(check bool) "the snapshot itself parses" true
    (Result.is_ok (Json.parse (Lazy.force snapshot)));
  let nest k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "512 levels parse" true (Result.is_ok (Json.parse (nest 512)));
  Alcotest.(check (result reject string)) "513 levels are an error"
    (Error "nested deeper than 512 at byte 512")
    (Result.map (fun _ -> ()) (Json.parse (nest 513)));
  (* a megabyte of brackets fails at the bound, not a byte per frame later *)
  Alcotest.(check (result reject string)) "1 MB of [ is an error"
    (Error "nested deeper than 512 at byte 512")
    (Result.map (fun _ -> ()) (Json.parse (String.make (1 lsl 20) '[')))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "empty histogram" `Quick test_hist_empty;
    Alcotest.test_case "empty histogram allocates no buckets" `Quick
      test_hist_create_allocates_little;
    Alcotest.test_case "negative observation rejected" `Quick
      test_hist_negative_rejected;
    Alcotest.test_case "count/sum/min/max exact" `Quick test_hist_exact_fields;
    Alcotest.test_case "single-value quantiles collapse" `Quick
      test_hist_single_value_quantiles;
    Alcotest.test_case "quantiles clamped to extrema" `Quick
      test_hist_quantile_clamped_to_extrema;
    q prop_merge_associative;
    q prop_merge_is_concat;
    q prop_bucket_boundaries;
    q prop_quantile_monotone;
    q prop_quantile_within_bucket_of_truth;
    q prop_quantile_is_observed;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json keeps int/float distinct" `Quick
      test_json_int_float_distinction;
    q prop_json_mutated_snapshot;
    Alcotest.test_case "json nesting bounded" `Quick test_json_nesting_bounded;
    Alcotest.test_case "registry semantics" `Quick test_registry_semantics;
    Alcotest.test_case "label order canonicalized" `Quick
      test_registry_label_order_irrelevant;
    Alcotest.test_case "bad names rejected" `Quick
      test_registry_rejects_bad_names;
    Alcotest.test_case "type clash raises" `Quick
      test_registry_type_clash_raises;
    Alcotest.test_case "handles share the keyed cells" `Quick
      test_registry_handles;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "equal and diff" `Quick test_registry_equal_and_diff;
    Alcotest.test_case "json snapshot golden" `Quick test_registry_json_golden;
    Alcotest.test_case "online = trace replay (all workloads x modes)" `Slow
      test_online_equals_replay;
    Alcotest.test_case "registry reconciles with stats everywhere" `Slow
      test_collect_check_reconciles;
    Alcotest.test_case "unpaired commit fails both checks" `Quick
      test_unpaired_commit_fails_both_checks;
    Alcotest.test_case "exported registries merge pairwise" `Quick
      test_exported_merge_matches_stats_merge;
    Alcotest.test_case "baseline commits are all prefix" `Quick
      test_baseline_has_no_suffix;
    Alcotest.test_case "staggered serializes a nonzero suffix" `Quick
      test_staggered_has_nonzero_suffix;
    Alcotest.test_case "bench gated fields nonzero" `Quick
      test_bench_gated_fields_nonzero;
    Alcotest.test_case "gc counters stamped at export" `Quick
      test_gcstats_stamp;
    Alcotest.test_case "gc minor words include the unflushed heap" `Quick
      test_gcstats_counts_unflushed_words;
  ]
