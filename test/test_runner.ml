open Stx_core
open Stx_runner
module Exp = Stx_harness.Exp

(* Tiny cells so the suite stays fast: small workloads, low scale, few
   threads. Everything here is deterministic, which is the property the
   whole subsystem rests on. *)

let ctx ?(seed = 3) ?(scale = 0.05) ?(jobs = 2) () =
  Exp.create ~seed ~scale ~threads:2 ~jobs ()

let cell ?(workload = "ssca2") ?(mode = Mode.Baseline) ?(threads = 2) () =
  (Option.get (Stx_workloads.Registry.find workload), mode, threads)

let run ctx (w, mode, threads) = Exp.run_at ctx w mode ~threads

let small_batch () =
  [
    cell ();
    cell ~mode:Mode.Staggered_hw ();
    cell ~workload:"kmeans" ();
    cell ~workload:"kmeans" ~mode:Mode.Staggered_hw ();
  ]

(* total representation of a prefetched batch: every [Stats] field of
   every cell. A cell carries no registry; serve "jobs count never
   changes the result" pins the registry's jobs-invariance *)
let outcomes_fingerprinted ctx cells =
  Exp.prefetch ctx cells;
  List.map
    (fun (((w : Stx_workloads.Workload.t), mode, threads) as c) ->
      ( Printf.sprintf "%s/%s/t%d" w.Stx_workloads.Workload.name
          (Mode.to_string mode) threads,
        Test_exact.fingerprint (run ctx c) ))
    cells

(* a registry workload whose builds are counted: [Exp] compiles a cell's
   workload once per simulation, so the count is the number of cells it
   simulated, whichever memo entry they land in *)
let counted name =
  let w = Option.get (Stx_workloads.Registry.find name) in
  let n = Atomic.make 0 in
  let build () =
    Atomic.incr n;
    w.Stx_workloads.Workload.build ()
  in
  ({ w with Stx_workloads.Workload.build }, n)

(* how many distinct [Stats.t] a list of results holds: the memo hands a
   repeated cell its twin's [Stats.t] itself *)
let distinct results =
  List.fold_left
    (fun acc r -> if List.exists (( == ) r) acc then acc else r :: acc)
    [] results
  |> List.length

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
  let cells = small_batch () in
  Alcotest.(check (list (pair string string)))
    "identical results regardless of parallelism"
    (outcomes_fingerprinted (ctx ~jobs:1 ()) cells)
    (outcomes_fingerprinted (ctx ~jobs:4 ()) cells)

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

(* A cell's digest is its context's seed, scale and policy plus its
   (workload, mode, threads) coordinate: the memo keys on the coordinate
   within one context, so a change to any field must make a distinct
   simulation and an equal cell must collapse onto its twin. *)
let test_digest_sensitive_to_every_field () =
  let c = ctx () in
  let ssca2, ssca2_builds = counted "ssca2" in
  let kmeans, kmeans_builds = counted "kmeans" in
  let builds () = Atomic.get ssca2_builds + Atomic.get kmeans_builds in
  let base = (ssca2, Mode.Baseline, 2) in
  let variants =
    [
      ("workload", (kmeans, Mode.Baseline, 2));
      ("mode", (ssca2, Mode.Staggered_hw, 2));
      ("threads", (ssca2, Mode.Baseline, 4));
    ]
  in
  Exp.prefetch c
    ((base :: List.map snd variants) @ [ (ssca2, Mode.Baseline, 2) ]);
  (* five cells, one a copy of the base: four simulations *)
  Alcotest.(check int) "the copy shares the base's simulation" 4 (builds ());
  let r0 = run c base in
  List.iter
    (fun (field, v) ->
      Alcotest.(check bool) (field ^ " changes the digest") false (run c v == r0))
    variants;
  (* seed and scale belong to the context, which must hand them to the
     machine: the cell's outcome moves with them *)
  List.iter
    (fun (field, other) ->
      Alcotest.(check bool) (field ^ " changes the digest") false
        (Test_exact.fingerprint (run other base) = Test_exact.fingerprint r0))
    [ ("seed", ctx ~seed:4 ()); ("scale", ctx ~scale:0.1 ()) ];
  Alcotest.(check int) "a change to any field is a distinct job" 4
    (distinct (r0 :: List.map (fun (_, v) -> run c v) variants));
  Alcotest.(check bool) "the copy shares the base's outcome" true
    (run c (ssca2, Mode.Baseline, 2) == r0)

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
  let w, builds = counted "ssca2" in
  let c = ctx () and j = (w, Mode.Baseline, 2) in
  Exp.prefetch c [ j; j; j ];
  Alcotest.(check int) "one simulation for three copies" 1 (Atomic.get builds);
  let results = List.map (fun j -> run c j) [ j; j; j ] in
  Alcotest.(check int) "three results returned" 3 (List.length results);
  Alcotest.(check int) "reading them back simulates nothing" 1
    (Atomic.get builds)

let test_job_make_rejects_bad_threads_and_scale () =
  let rejects what make =
    match make () with
    | (_ : Exp.t) -> Alcotest.failf "Exp.create accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "threads 0" (fun () -> Exp.create ~threads:0 ());
  List.iter
    (fun scale ->
      rejects (Printf.sprintf "scale %g" scale) (fun () -> Exp.create ~scale ()))
    [ 0.; Float.nan; Float.infinity ]

(* the reports built on cells read only [Stats], so a cell runs bare: an
   observer composed into [Exp]'s simulation would show up as allocation
   beyond that of the bare machine on the same cell *)
let test_sweep_cells_run_bare () =
  let j = cell ~workload:"list-hi" ~mode:Mode.Staggered_hw ~threads:4 () in
  let bare () =
    let w = Option.get (Stx_workloads.Registry.find "list-hi") in
    let spec = Stx_workloads.Workload.spec ~instrument:true ~scale:0.05 w in
    let cfg = Stx_machine.Config.with_cores 4 Stx_machine.Config.default in
    Stx_sim.Machine.run ~seed:3 ~cfg ~mode:Mode.Staggered_hw spec
  in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  ignore (bare ());
  ignore (run (ctx ()) j);
  let sweep = words (fun () -> run (ctx ()) j) and bare = words bare in
  Alcotest.(check bool)
    (Printf.sprintf "sweep %.0f words, bare %.0f (%.3fx)" sweep bare
       (sweep /. bare))
    true
    (sweep <= 1.01 *. bare)

(* every callback runs under the pool's one lock: a plain flag set on
   entry and cleared on exit is never found set by another callback *)
let test_pool_callbacks_never_overlap () =
  let busy = ref false and overlaps = ref 0 and calls = ref 0 in
  let callback () =
    if !busy then incr overlaps;
    busy := true;
    incr calls;
    Unix.sleepf 0.0005;
    busy := false
  in
  let thunks = Array.init 40 (fun i () -> Unix.sleepf 0.002; i) in
  let out =
    Pool.map ~jobs:4
      ~on_start:(fun _ -> callback ())
      ~on_done:(fun _ _ -> callback ())
      ~tick:(0.001, callback) thunks
  in
  Array.iteri
    (fun i o -> Alcotest.(check bool) "done" true (o = Pool.Done i))
    out;
  Alcotest.(check bool) "every job called back" true (!calls >= 80);
  Alcotest.(check int) "no two callbacks overlapped" 0 !overlaps

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
    Alcotest.test_case "sweep cells attach no observer" `Quick
      test_sweep_cells_run_bare;
    Alcotest.test_case "callbacks never overlap at jobs 4" `Quick
      test_pool_callbacks_never_overlap;
  ]
