open Stx_core
open Stx_sim
open Stx_workloads
module Trace = Stx_trace.Trace
module Json = Stx_metrics.Json

(* The trace recorder, its invariant checker, and the Chrome exporter.
   Runs stay tiny (low scale, 4 threads) to keep the suite fast. *)

let threads = 4

let run_traced ?capacity ?(scale = 0.05) ~mode w =
  let tr = Trace.create ?capacity ~threads () in
  let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
  let stats =
    Machine.run ~seed:3
      ~cfg:(Stx_machine.Config.with_cores threads Stx_machine.Config.default)
      ~mode
      ~on_event:(Trace.handler tr)
      spec
  in
  (tr, stats)

let all_modes =
  [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* every workload x every mode: the replayed event stream must reconcile
   with the inline counters *)
let test_check_green_everywhere () =
  List.iter
    (fun w ->
      List.iter
        (fun mode ->
          let tr, stats = run_traced ~mode w in
          match Trace.check tr stats with
          | Ok () -> ()
          | Error errs ->
            Alcotest.failf "%s / %s:\n  %s" w.Workload.name (Mode.to_string mode)
              (String.concat "\n  " errs))
        all_modes)
    Registry.all

(* deliberately corrupting any counter must trip the checker *)
let test_check_detects_corruption () =
  let w = Option.get (Registry.find "list-hi") in
  let tr, stats = run_traced ~mode:Mode.Staggered_hw w in
  let expect_divergence name bump restore =
    bump ();
    (match Trace.check tr stats with
    | Ok () -> Alcotest.failf "corrupted %s went undetected" name
    | Error _ -> ());
    restore ();
    match Trace.check tr stats with
    | Ok () -> ()
    | Error errs ->
      Alcotest.failf "restore of %s left divergence: %s" name
        (String.concat "; " errs)
  in
  expect_divergence "commits"
    (fun () -> stats.Stats.commits <- stats.Stats.commits + 1)
    (fun () -> stats.Stats.commits <- stats.Stats.commits - 1);
  expect_divergence "aborts"
    (fun () -> stats.Stats.aborts <- stats.Stats.aborts - 1)
    (fun () -> stats.Stats.aborts <- stats.Stats.aborts + 1);
  expect_divergence "lock_acquires"
    (fun () -> stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1)
    (fun () -> stats.Stats.lock_acquires <- stats.Stats.lock_acquires - 1);
  expect_divergence "useful_cycles"
    (fun () -> stats.Stats.useful_cycles <- stats.Stats.useful_cycles + 7)
    (fun () -> stats.Stats.useful_cycles <- stats.Stats.useful_cycles - 7);
  let ab0 = Stats.ab stats 0 in
  expect_divergence "per-ab commits"
    (fun () -> ab0.Stats.ab_commits <- ab0.Stats.ab_commits + 1)
    (fun () -> ab0.Stats.ab_commits <- ab0.Stats.ab_commits - 1)

(* a ring-mode trace is bounded — and refuses to vouch for anything *)
let test_ring_bounds_and_refuses () =
  let w = Option.get (Registry.find "list-hi") in
  let tr, stats = run_traced ~capacity:128 ~mode:Mode.Staggered_hw w in
  Alcotest.(check int) "ring length" 128 (Trace.length tr);
  Alcotest.(check bool) "dropped some" true (Trace.dropped tr > 0);
  match Trace.check tr stats with
  | Ok () -> Alcotest.fail "a truncated trace must not reconcile"
  | Error (e :: _) ->
    Alcotest.(check bool) "mentions dropped events" true (contains e "dropped")
  | Error [] -> Alcotest.fail "empty error list"

let test_attribution_accounts_every_conflict () =
  let w = Option.get (Registry.find "memcached") in
  let tr, stats = run_traced ~mode:Mode.Baseline w in
  let a = Trace.abort_attribution tr in
  Alcotest.(check int) "conflict aborts" stats.Stats.conflict_aborts
    a.Trace.conflict_aborts;
  let attributed =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0 a.Trace.agg_matrix
  in
  Alcotest.(check int) "matrix + unattributed covers all"
    a.Trace.conflict_aborts
    (attributed + a.Trace.unattributed);
  Alcotest.(check int) "by_ab sums to total" a.Trace.conflict_aborts
    (List.fold_left (fun acc (_, c) -> acc + c) 0 a.Trace.by_ab);
  (* no self-aborts: requester-wins dooms *other* cores *)
  Array.iteri
    (fun i row ->
      Alcotest.(check int) (Printf.sprintf "no self-abort t%d" i) 0 row.(i))
    a.Trace.agg_matrix

(* --- Chrome JSON round trip ------------------------------------------- *)

let field = Json.member

let test_chrome_roundtrip () =
  let w = Option.get (Registry.find "list-hi") in
  let tr, stats = run_traced ~mode:Mode.Staggered_hw w in
  let doc =
    match Json.parse (Trace.to_chrome_json tr) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let events =
    match field "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let count p = List.length (List.filter p events) in
  let abort_instants =
    count (fun e ->
        field "ph" e = Some (Json.Str "i") && field "name" e = Some (Json.Str "abort"))
  in
  Alcotest.(check int) "abort instants = Stats.aborts" stats.Stats.aborts
    abort_instants;
  let commit_spans =
    count (fun e ->
        field "ph" e = Some (Json.Str "X")
        &&
        match field "args" e with
        | Some a -> field "outcome" a = Some (Json.Str "commit")
        | None -> false)
  in
  Alcotest.(check int) "commit spans = Stats.commits" stats.Stats.commits
    commit_spans;
  let lanes = count (fun e -> field "name" e = Some (Json.Str "thread_name")) in
  Alcotest.(check int) "one metadata lane per core" threads lanes;
  (* spans never run backwards *)
  List.iter
    (fun e ->
      match (field "ph" e, field "dur" e) with
      | Some (Json.Str "X"), Some (Json.Int d) ->
        Alcotest.(check bool) "non-negative duration" true (d >= 0)
      | Some (Json.Str "X"), _ -> Alcotest.fail "span without an integer dur"
      | _ -> ())
    events

(* --- %TM accounting under merge ---------------------------------------- *)

(* two sequential shards on the same cores: the old total_cycles * threads
   denominator maxed while the numerator summed, reporting > 100% TM *)
let test_merge_keeps_pct_tx_time_bounded () =
  let mk () =
    let s = Stats.create ~threads:4 in
    s.Stats.total_cycles <- 1000;
    s.Stats.thread_cycles <- 4000;
    s.Stats.tx_mode_cycles <- 3600;
    s
  in
  let one = mk () in
  Alcotest.(check (float 1e-6)) "single shard" 90.0 (Stats.pct_tx_time one);
  let m = Stats.merge (mk ()) (mk ()) in
  Alcotest.(check (float 1e-6)) "merged stays 90%" 90.0 (Stats.pct_tx_time m);
  Alcotest.(check bool) "merged <= 100%" true (Stats.pct_tx_time m <= 100.0)

let test_merged_real_runs_stay_bounded () =
  let w = Option.get (Registry.find "ssca2") in
  let _, a = run_traced ~mode:Mode.Staggered_hw w in
  let _, b = run_traced ~mode:Mode.Baseline w in
  let m = Stats.merge a b in
  Alcotest.(check bool) "merged %TM <= 100" true (Stats.pct_tx_time m <= 100.0);
  Alcotest.(check int) "thread_cycles sum" (a.Stats.thread_cycles + b.Stats.thread_cycles)
    m.Stats.thread_cycles

(* --- the bracket fold ---------------------------------------------------- *)

module Lifecycle = Stx_trace.Lifecycle

(* every closed bracket as (kind, tid, start, stop, detail), where the
   detail is what the kind carries beyond its interval *)
let fold events =
  let spans = ref [] and errors = ref [] in
  let on_span (s : Lifecycle.span) _ =
    let kind, detail =
      match s.kind with
      | Lifecycle.Attempt ->
        ( "attempt",
          Printf.sprintf "ab%d #%d acquires=%d first=%d waited=%d" s.ab s.attempt
            s.acquires s.first_acquire s.waited )
      | Lifecycle.Wait -> ("wait", Printf.sprintf "lock%d" s.lock)
      | Lifecycle.Hold -> ("hold", Printf.sprintf "lock%d line%d" s.lock s.line)
      | Lifecycle.Backoff -> ("backoff", Printf.sprintf "ab%d" s.ab)
      | Lifecycle.Request -> ("request", "")
    in
    spans := (kind, s.tid, s.start, s.stop, detail) :: !spans
  in
  let lc =
    Lifecycle.create ~on_error:(fun e -> errors := e :: !errors) ~on_span ()
  in
  List.iter (fun (time, ev) -> Lifecycle.step lc ~time ev) events;
  Lifecycle.finish lc;
  (List.rev !spans, List.rev !errors)

let begin_ ~tid ~attempt = Machine.Tx_begin { tid; ab = 1; attempt; probe = false }

let commit ~tid =
  Machine.Tx_commit
    { tid; ab = 1; cycles = 10; irrevocable = false; rset = 1; wset = 1; probe = false }

let abort ~tid =
  Machine.Tx_abort
    {
      tid; ab = 1; kind = Machine.Conflict; conf_line = None; conf_pc = None;
      aggressor = None; cycles = 5; rset = 1; wset = 0; probe = false;
    }

let test_lifecycle_pairs_brackets () =
  let spans, errors =
    fold
      [
        (0, Machine.Req_dispatch { tid = 0; req = 5; ab = 1 });
        (1, begin_ ~tid:0 ~attempt:0);
        (3, Machine.Lock_waiting { tid = 0; lock = 2 });
        (6, abort ~tid:0);
        (6, Machine.Backoff_start { tid = 0 });
        (10, Machine.Backoff_end { tid = 0 });
        (10, begin_ ~tid:0 ~attempt:1);
        (12, Machine.Lock_waiting { tid = 0; lock = 2 });
        (15, Machine.Lock_acquired { tid = 0; lock = 2; line = 40 });
        (20, Machine.Lock_released { tid = 0; lock = 2; committed = true });
        (20, commit ~tid:0);
        (20, Machine.Req_done { tid = 0; req = 5; ab = 1 });
      ]
  in
  Alcotest.(check (list string)) "no violations" [] errors;
  Alcotest.(check (list (pair (pair string int) (pair (pair int int) string))))
    "spans, closed in order"
    (List.map
       (fun (k, tid, a, b, d) -> ((k, tid), ((a, b), d)))
       [
         (* the abort closes the wait it cut short, then the attempt *)
         ("wait", 0, 3, 6, "lock2");
         ("attempt", 0, 1, 6, "ab1 #0 acquires=0 first=-1 waited=3");
         ("backoff", 0, 6, 10, "ab1");
         ("wait", 0, 12, 15, "lock2");
         ("hold", 0, 15, 20, "lock2 line40");
         ("attempt", 0, 10, 20, "ab1 #1 acquires=1 first=15 waited=3");
         ("request", 0, 0, 20, "");
       ])
    (List.map (fun (k, tid, a, b, d) -> ((k, tid), ((a, b), d))) spans)

let test_lifecycle_reports_violations () =
  let spans, errors =
    fold
      [
        (0, commit ~tid:0);
        (1, begin_ ~tid:1 ~attempt:0);
        (2, Machine.Lock_acquired { tid = 1; lock = 3; line = 9 });
        (3, commit ~tid:1);
        (2, Machine.Backoff_start { tid = 1 });
        (5, begin_ ~tid:0 ~attempt:0);
      ]
  in
  Alcotest.(check (list string)) "messages"
    [
      "thread 0: commit at 0 with no open attempt";
      "thread 1: advisory lock still held at commit (time 3)";
      "thread 1: clock went backwards (2 after 3)";
      "thread 0: attempt still open at end of trace";
      "thread 1: backoff still open at end of trace";
    ]
    errors;
  (* an unpaired close yields no span; the held lock dies with its attempt *)
  Alcotest.(check (list string)) "spans" [ "attempt" ]
    (List.map (fun (k, _, _, _, _) -> k) spans)

(* the fold runs inside the online metrics collector: its per-thread
   state is flat and its span record reused, so replaying a real stream
   through it allocates nothing per event *)
let test_lifecycle_allocates_nothing_per_event () =
  let w = Option.get (Registry.find "genome") in
  let tr, _ = run_traced ~mode:Mode.Staggered_hw w in
  let lc = Lifecycle.create ~on_span:(fun _ _ -> ()) () in
  let step ~time ev = Lifecycle.step lc ~time ev in
  let w0 = Gc.minor_words () in
  Trace.iter tr step;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d events" words (Trace.length tr))
    true
    (words < 64.)

(* Each observer's allocation per event, read on a second replay of the
   same genome capture through the same handler, so every window and
   registry series it needs already exists. Trace keeps one 3-word
   {time; ev} entry per event; telemetry fills its windows in place;
   metrics writes through handles resolved at [create], so the only
   words it spends are the bracket fold's four "clock went backwards"
   messages as the second pass restarts each thread (about 330 words
   over the capture's 1,456 events; a bare fold reads the same). *)
let test_observers_words_per_event () =
  let w = Option.get (Registry.find "genome") in
  let tr, _ = run_traced ~mode:Mode.Staggered_hw w in
  let n = float_of_int (Trace.length tr) in
  let second_pass handler =
    Trace.iter tr handler;
    let w0 = Gc.minor_words () in
    Trace.iter tr handler;
    (Gc.minor_words () -. w0) /. n
  in
  let ceiling name bound handler =
    let words = second_pass handler in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words/event, ceiling %.2f" name words bound)
      true (words <= bound)
  in
  ceiling "trace" 3.0 (Trace.handler (Trace.create ~threads ()));
  ceiling "telemetry" 0.1
    (Stx_telemetry.Collect.handler
       (Stx_telemetry.Collect.create ~threads ()));
  (* 0.23 is its reading: a handler that rebuilt a label key per write
     would spend tens of words per event *)
  ceiling "metrics" 0.23
    (Stx_metrics.Collect.handler (Stx_metrics.Collect.create ()))

let suite =
  [
    Alcotest.test_case "checker green on every workload x mode" `Slow
      test_check_green_everywhere;
    Alcotest.test_case "checker detects corrupted counters" `Quick
      test_check_detects_corruption;
    Alcotest.test_case "ring mode bounds memory, refuses to check" `Quick
      test_ring_bounds_and_refuses;
    Alcotest.test_case "attribution accounts every conflict" `Quick
      test_attribution_accounts_every_conflict;
    Alcotest.test_case "chrome JSON round trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "lifecycle pairs every bracket" `Quick
      test_lifecycle_pairs_brackets;
    Alcotest.test_case "lifecycle reports violations" `Quick
      test_lifecycle_reports_violations;
    Alcotest.test_case "lifecycle allocates nothing per event" `Quick
      test_lifecycle_allocates_nothing_per_event;
    Alcotest.test_case "observers stay under words-per-event ceilings" `Quick
      test_observers_words_per_event;
    Alcotest.test_case "merge keeps %TM bounded" `Quick
      test_merge_keeps_pct_tx_time_bounded;
    Alcotest.test_case "merged real runs stay bounded" `Quick
      test_merged_real_runs_stay_bounded;
  ]
