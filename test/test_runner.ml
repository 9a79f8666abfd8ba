open Stx_core
open Stx_runner

(* Tiny jobs so the suite stays fast: small workloads, low scale, few
   threads. Everything here is deterministic, which is the property the
   whole subsystem rests on. *)

let job ?policy ?(workload = "ssca2") ?(mode = Mode.Baseline) ?(threads = 2)
    ?(seed = 3) ?(scale = 0.05) () =
  Job.make ?policy ~workload ~mode ~threads ~seed ~scale ()

let small_batch () =
  [
    job ();
    job ~mode:Mode.Staggered_hw ();
    job ~workload:"kmeans" ();
    job ~workload:"kmeans" ~mode:Mode.Staggered_hw ();
  ]

(* total representation of a batch's outcomes: every [Stats] field and
   the metrics registry's JSON snapshot *)
let outcomes_fingerprinted batch =
  List.map
    (fun (j, out) ->
      match out with
      | Pool.Done r ->
        ( Job.label j,
          Test_exact.fingerprint r.Stx_metrics.Run.stats
          ^ Stx_metrics.Registry.to_json_string r.Stx_metrics.Run.metrics )
      | Pool.Failed m -> (Job.label j, "failed: " ^ m))
    batch.Sweep.results

(* --- pool ------------------------------------------------------------- *)

let test_pool_results_in_input_order () =
  let thunks = Array.init 16 (fun i () -> i * i) in
  let out = Pool.map ~jobs:4 thunks in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "value" (i * i) v
      | _ -> Alcotest.fail "job failed")
    out

let test_pool_jobs1_equals_jobs4 () =
  let specs = small_batch () in
  let seq = Sweep.run_batch ~jobs:1 specs in
  let par = Sweep.run_batch ~jobs:4 specs in
  Alcotest.(check (list (pair string string)))
    "identical results regardless of parallelism" (outcomes_fingerprinted seq)
    (outcomes_fingerprinted par)

let test_pool_exception_isolated () =
  let thunks =
    [|
      (fun () -> 1);
      (fun () -> failwith "boom");
      (fun () -> 3);
    |]
  in
  let out = Pool.map ~jobs:2 thunks in
  (match out.(1) with
  | Pool.Failed msg ->
    Alcotest.(check bool) "message kept" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected Failed");
  (match (out.(0), out.(2)) with
  | Pool.Done 1, Pool.Done 3 -> ()
  | _ -> Alcotest.fail "neighbours unaffected by the crash")

let test_pool_callbacks_balanced () =
  let started = ref 0 and finished = ref 0 in
  let thunks = Array.init 10 (fun i () -> i) in
  ignore
    (Pool.map ~jobs:3
       ~on_start:(fun _ -> incr started)
       ~on_done:(fun _ _ -> incr finished)
       thunks);
  Alcotest.(check int) "every job started" 10 !started;
  Alcotest.(check int) "every job finished" 10 !finished

(* --- digest ------------------------------------------------------------ *)

(* A job's digest is the spec itself: [Sweep.run_batch] keys its dedupe
   table on structural equality of [Job.t], so a change to any field must
   make a distinct key and an equal spec must collapse onto its twin. *)
let test_digest_sensitive_to_every_field () =
  let base = job () in
  let variants =
    [
      ("workload", job ~workload:"kmeans" ());
      ("mode", job ~mode:Mode.Staggered_hw ());
      ("threads", job ~threads:4 ());
      ("seed", job ~seed:4 ());
      ("scale", job ~scale:0.0500001 ());
    ]
  in
  List.iter
    (fun (field, j) ->
      Alcotest.(check bool) (field ^ " changes the digest") false (base = j))
    variants;
  Alcotest.(check bool) "digest is a function of the spec" true
    (base = job ());
  let b =
    Sweep.run_batch ~jobs:2 ((base :: List.map snd variants) @ [ job () ])
  in
  Alcotest.(check int) "a change to any field is a distinct job" 6
    b.Sweep.executed;
  Alcotest.(check int) "every input gets a result" 7
    (List.length b.Sweep.results);
  match (List.hd b.Sweep.results, List.nth b.Sweep.results 6) with
  | (_, Pool.Done r0), (_, Pool.Done r6) ->
    Alcotest.(check string) "the copy shares the base's outcome"
      (Test_exact.fingerprint r0.Stx_metrics.Run.stats)
      (Test_exact.fingerprint r6.Stx_metrics.Run.stats)
  | _ -> Alcotest.fail "expected both base occurrences to succeed"

(* --- progress ---------------------------------------------------------- *)

let test_progress_wall_summary_injectable_clock () =
  let now = ref 0. in
  let buf = Filename.temp_file "stx-progress" ".log" in
  let oc = open_out buf in
  let p = Progress.create ~out:oc ~now:(fun () -> !now) ~total:3 () in
  Alcotest.(check bool) "no summary before any job" true
    (Progress.wall_summary p = None);
  (* three jobs: 0.100s, 0.200s, 1.600s of injected wall time *)
  Progress.job_started p "a";
  now := 0.1;
  Progress.job_finished p "a" ~status:"ok";
  Progress.job_started p "b";
  now := 0.3;
  Progress.job_finished p "b" ~status:"ok";
  Progress.job_started p "c";
  now := 1.9;
  Progress.job_finished p "c" ~status:"ok";
  (match Progress.wall_summary p with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    (* the p50 rank lands on the 200ms observation: the bucket's observed
       maximum caps the quantile at the value actually recorded, so the
       report says 0.2s, not the bucket's 255ms upper bound *)
    Alcotest.(check string) "quantiles from the injected clock"
      "job wall-time p50 0.2s p95 1.6s max 1.6s" s);
  Progress.finish p;
  close_out oc;
  let log = In_channel.with_open_text buf In_channel.input_all in
  Sys.remove buf;
  Alcotest.(check bool) "closing line carries the summary" true
    (let sub = "job wall-time p50" in
     let rec find i =
       i + String.length sub <= String.length log
       && (String.sub log i (String.length sub) = sub || find (i + 1))
     in
     find 0)

let contains log sub =
  let rec find i =
    i + String.length sub <= String.length log
    && (String.sub log i (String.length sub) = sub || find (i + 1))
  in
  find 0

let test_progress_heartbeat_line () =
  let now = ref 0. in
  let buf = Filename.temp_file "stx-heartbeat" ".log" in
  let oc = open_out buf in
  let p = Progress.create ~out:oc ~now:(fun () -> !now) ~total:4 () in
  Progress.job_started p "a";
  Progress.job_started p "b";
  now := 0.5;
  Progress.job_finished p "a" ~status:"ok";
  Progress.job_started p "c";
  now := 1.0;
  Progress.heartbeat p;
  close_out oc;
  let log = In_channel.with_open_text buf In_channel.input_all in
  Sys.remove buf;
  Alcotest.(check bool) "done/total" true (contains log "heartbeat [1/4]");
  Alcotest.(check bool) "eta present" true (contains log "eta ");
  Alcotest.(check bool) "wall summary present" true
    (contains log "job wall-time p50");
  (* the in-flight list shows the most recently started first *)
  Alcotest.(check bool) "in-flight labels listed" true
    (contains log "running c b")

let test_pool_tick_fires_in_parallel_mode () =
  let ticks = Atomic.make 0 in
  let thunks = Array.init 2 (fun _ () -> Unix.sleepf 0.15) in
  let out =
    Pool.map ~jobs:2 ~tick:(0.02, fun () -> Atomic.incr ticks) thunks
  in
  Alcotest.(check int) "all jobs done" 2 (Array.length out);
  Array.iter
    (fun o -> Alcotest.(check bool) "done" true (o = Pool.Done ()))
    out;
  Alcotest.(check bool)
    (Printf.sprintf "ticked at least once (%d)" (Atomic.get ticks))
    true
    (Atomic.get ticks > 0)

let test_pool_tick_silent_inline () =
  let ticks = Atomic.make 0 in
  let thunks = Array.init 2 (fun _ () -> Unix.sleepf 0.05) in
  let _ = Pool.map ~jobs:1 ~tick:(0.01, fun () -> Atomic.incr ticks) thunks in
  Alcotest.(check int) "inline mode never ticks" 0 (Atomic.get ticks)

let test_batch_dedupes_duplicate_specs () =
  let j = job () in
  let b = Sweep.run_batch ~jobs:2 [ j; j; j ] in
  Alcotest.(check int) "one simulation for three copies" 1 b.Sweep.executed;
  Alcotest.(check int) "three results returned" 3
    (List.length b.Sweep.results)

let test_job_make_rejects_bad_threads_and_scale () =
  let rejects what make =
    match make () with
    | (_ : Job.t) -> Alcotest.failf "Job.make accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "threads 0" (fun () -> job ~threads:0 ());
  List.iter
    (fun scale -> rejects (Printf.sprintf "scale %g" scale) (fun () -> job ~scale ()))
    [ 0.; Float.nan; Float.infinity ]

let suite =
  [
    Alcotest.test_case "pool keeps input order" `Quick
      test_pool_results_in_input_order;
    Alcotest.test_case "jobs=1 and jobs=4 identical" `Quick
      test_pool_jobs1_equals_jobs4;
    Alcotest.test_case "exception isolated to its job" `Quick
      test_pool_exception_isolated;
    Alcotest.test_case "callbacks balanced" `Quick test_pool_callbacks_balanced;
    Alcotest.test_case "digest sensitive to every field" `Quick
      test_digest_sensitive_to_every_field;
    Alcotest.test_case "progress wall-time summary (injected clock)" `Quick
      test_progress_wall_summary_injectable_clock;
    Alcotest.test_case "progress heartbeat line (injected clock)" `Quick
      test_progress_heartbeat_line;
    Alcotest.test_case "pool tick fires in parallel mode" `Quick
      test_pool_tick_fires_in_parallel_mode;
    Alcotest.test_case "pool tick silent in inline mode" `Quick
      test_pool_tick_silent_inline;
    Alcotest.test_case "duplicate specs deduped" `Quick
      test_batch_dedupes_duplicate_specs;
    Alcotest.test_case "Job.make rejects bad threads and scale" `Quick
      test_job_make_rejects_bad_threads_and_scale;
  ]
