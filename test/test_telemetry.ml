open Stx_telemetry
module M = Stx_sim.Machine

(* The telemetry layer keeps the repo's online-vs-replay contract at
   window granularity: the series folded live from the machine's event
   hook must equal, bit for bit, the series replayed from the same run's
   trace capture. The sections below pin that contract on the full
   workload x mode matrix, the window-boundary arithmetic on synthetic
   events, the episode detectors on hand-built series, the codecs, and
   the serve harness's shard-merge jobs-invariance. *)

(* same tiny-but-contended configuration as test_trace/test_metrics *)
let seed = 3
let scale = 0.05
let threads = 4
let window = 500

let all_modes =
  [
    Stx_core.Mode.Baseline;
    Stx_core.Mode.Addr_only;
    Stx_core.Mode.Staggered_sw;
    Stx_core.Mode.Staggered_hw;
  ]

let measured = Hashtbl.create 64

let run_with_telemetry (w : Stx_workloads.Workload.t) mode =
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
    let tc = Collect.create ~window ~threads () in
    let cfg = Stx_machine.Config.with_cores threads Stx_machine.Config.default in
    let stats =
      M.run ~seed ~cfg ~mode
        ~on_event:(fun ~time ev ->
          Stx_trace.Trace.handler tr ~time ev;
          Collect.handler tc ~time ev)
        spec
    in
    let horizon = stats.Stx_sim.Stats.total_cycles in
    let online = Collect.finalize ~horizon tc in
    let r = (stats, tr, online) in
    Hashtbl.add measured key r;
    r

(* --- online vs trace replay, every workload x mode --------------------- *)

let test_online_equals_replay () =
  List.iter
    (fun (w : Stx_workloads.Workload.t) ->
      List.iter
        (fun mode ->
          let cell =
            Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
              (Stx_core.Mode.to_string mode)
          in
          let stats, tr, online = run_with_telemetry w mode in
          let replayed =
            Collect.of_trace ~window
              ~horizon:stats.Stx_sim.Stats.total_cycles tr
          in
          match Series.diff online replayed with
          | [] -> ()
          | errs ->
            Alcotest.fail
              (cell ^ ": online and replayed series diverge:\n  "
             ^ String.concat "\n  " errs))
        all_modes)
    Stx_workloads.Registry.all

let test_busy_sums_to_attempt_cycles () =
  (* span-splitting must conserve cycles: summing per-window busy over
     the whole series recovers every attempt's latency exactly *)
  List.iter
    (fun (w : Stx_workloads.Workload.t) ->
      let _, tr, online = run_with_telemetry w Stx_core.Mode.Staggered_hw in
      let from_events = ref 0 in
      Stx_trace.Trace.iter tr (fun ~time:_ ev ->
          match ev with
          | M.Tx_commit { cycles; _ }
          | M.Tx_abort { cycles; _ }
          | M.Stm_commit { cycles; _ }
          | M.Stm_abort { cycles; _ } -> from_events := !from_events + cycles
          | _ -> ());
      let from_windows =
        Array.fold_left
          (fun acc w -> acc + Series.busy_total w)
          0 online.Series.windows
      in
      Alcotest.(check int)
        (w.Stx_workloads.Workload.name ^ ": busy cycles conserved")
        !from_events from_windows)
    Stx_workloads.Registry.all

(* --- window-boundary arithmetic on synthetic events -------------------- *)

let commit ~tid ~cycles =
  M.Tx_commit
    { tid; ab = 0; cycles; irrevocable = false; rset = 1; wset = 1; probe = false }

let abort ~tid ~cycles =
  M.Tx_abort
    {
      tid;
      ab = 0;
      kind = M.Conflict;
      conf_line = Some 7;
      conf_pc = Some 3;
      aggressor = Some (1 - tid);
      cycles;
      rset = 1;
      wset = 1;
      probe = false;
    }

let test_boundary_point_and_span () =
  let c = Collect.create ~window:10 ~threads:2 () in
  (* commit exactly on a boundary: the point lands in window 1, but its
     10-cycle span is [0,10) — entirely window 0 *)
  Collect.handler c ~time:10 (commit ~tid:0 ~cycles:10);
  let s = Collect.finalize c in
  Alcotest.(check int) "commit counted in window 1" 1
    (Series.get s.Series.windows.(1) Series.hw_commits);
  Alcotest.(check int) "span fully in window 0" 10
    s.Series.windows.(0).Series.busy.(0);
  Alcotest.(check int) "no span in window 1" 0
    s.Series.windows.(1).Series.busy.(0)

let test_span_split_across_windows () =
  let c = Collect.create ~window:10 ~threads:2 () in
  (* abort at 25 wasting 7 cycles: span [18,25) puts 2 cycles in window
     1 and 5 in window 2 *)
  Collect.handler c ~time:25 (abort ~tid:1 ~cycles:7);
  let s = Collect.finalize c in
  Alcotest.(check int) "window 1 share" 2 s.Series.windows.(1).Series.busy.(1);
  Alcotest.(check int) "window 2 share" 5 s.Series.windows.(2).Series.busy.(1);
  Alcotest.(check int) "abort in window 2" 1
    (Series.get s.Series.windows.(2) Series.conflict_aborts);
  Alcotest.(check (list (pair int int)))
    "line tally" [ (7, 1) ]
    (Stx_util.Stat.by_key s.Series.windows.(2).Series.conf_lines)

let test_span_clamped_at_zero () =
  let c = Collect.create ~window:10 ~threads:1 () in
  (* a 9-cycle attempt reported at time 3 can only have run [0,3) *)
  Collect.handler c ~time:3 (abort ~tid:0 ~cycles:9);
  let s = Collect.finalize c in
  Alcotest.(check int) "clamped span" 3 s.Series.windows.(0).Series.busy.(0)

let test_finalize_pads_and_stays_live () =
  let c = Collect.create ~window:10 ~threads:1 () in
  Collect.handler c ~time:4 (commit ~tid:0 ~cycles:2);
  (* horizon 35 is not a multiple of the window: ceil gives 4 windows *)
  let s = Collect.finalize ~horizon:35 c in
  Alcotest.(check int) "padded to ceil(35/10)" 4 (Series.length s);
  Alcotest.(check int) "tail window empty" 0
    (Series.commits s.Series.windows.(3));
  (* the collector keeps collecting after a snapshot *)
  Collect.handler c ~time:52 (commit ~tid:0 ~cycles:1);
  let s2 = Collect.finalize c in
  Alcotest.(check int) "later events extend the series" 6 (Series.length s2);
  Alcotest.(check int) "earlier snapshot unchanged" 4 (Series.length s)

(* --- episode detectors on hand-built series ---------------------------- *)

let mk_window ?(hw_commits = 0) ?(conflict_aborts = 0) ?(stm_cycles = 0)
    ?(lock_cycles = 0) ?(offered = 0) ?(completed = 0) ?(busy = [| 0 |])
    ?(conf_lines = []) () =
  let w = { (Series.empty ~threads:1) with busy } in
  List.iter
    (fun ((c : Series.column), v) -> w.counts.(c.index) <- v)
    [
      (Series.hw_commits, hw_commits); (Series.conflict_aborts, conflict_aborts);
      (Series.stm_cycles, stm_cycles); (Series.lock_cycles, lock_cycles);
      (Series.offered, offered); (Series.completed, completed);
    ];
  List.iter (fun (line, n) -> Hashtbl.replace w.conf_lines line n) conf_lines;
  w

let mk_series windows =
  { Series.width = 10; threads = 1; windows = Array.of_list windows }

let saturations s =
  List.filter_map
    (function Episodes.Saturation { onset } -> Some onset | _ -> None)
    (Episodes.detect s)

let test_saturation_healthy_run_is_quiet () =
  (* per-window completions lag arrivals by one window, but the
     cumulative count catches up — no saturation *)
  let s =
    mk_series
      [
        mk_window ~offered:10 ~completed:0 ();
        mk_window ~offered:10 ~completed:10 ();
        mk_window ~offered:0 ~completed:10 ();
      ]
  in
  Alcotest.(check (list int)) "no onset" [] (saturations s)

let test_saturation_onset_detected () =
  (* keeps up for one window, then completions flatline for good: by
     window 2's end only 14 of the 20 due-by-then have completed *)
  let s =
    mk_series
      [
        mk_window ~offered:10 ~completed:10 ();
        mk_window ~offered:10 ~completed:2 ();
        mk_window ~offered:10 ~completed:2 ();
        mk_window ~offered:10 ~completed:2 ();
      ]
  in
  Alcotest.(check (list int)) "onset at the first falling-behind window" [ 2 ]
    (saturations s)

let test_saturation_requires_staying_below () =
  (* a transient dip that recovers by the end is not saturation *)
  let s =
    mk_series
      [
        mk_window ~offered:10 ~completed:0 ();
        mk_window ~offered:10 ~completed:0 ();
        mk_window ~offered:10 ~completed:30 ();
      ]
  in
  Alcotest.(check (list int)) "recovered" [] (saturations s)

let test_storm_run_merging_and_dominants () =
  let quiet = mk_window () in
  let stormy lines n = mk_window ~conflict_aborts:n ~conf_lines:lines () in
  let s =
    mk_series
      [
        quiet;
        stormy [ (5, 4); (9, 2) ] 6;
        stormy [ (9, 5) ] 5;
        quiet;
        stormy [ (5, 4) ] 4;
      ]
  in
  (* mean over nonzero windows = 5, threshold = max 4 (2*15/3) = 10..
     no: 2*15/3 = 10, so only storms >= 10 — override explicitly *)
  let storms =
    List.filter_map
      (function
        | Episodes.Conflict_storm { first; last; aborts; peak; line; _ } ->
          Some (first, last, aborts, peak, line)
        | _ -> None)
      (Episodes.detect ~storm_threshold:4 s)
  in
  match storms with
  | [ (a_first, a_last, a_aborts, a_peak, a_line); (b_first, b_last, _, _, _) ]
    ->
    Alcotest.(check (pair int int)) "first run spans windows 1-2" (1, 2)
      (a_first, a_last);
    Alcotest.(check int) "first run aborts" 11 a_aborts;
    Alcotest.(check int) "first run peak" 6 a_peak;
    (* line 9 has 2+5=7 vs line 5's 4 across the merged run *)
    Alcotest.(check (option int)) "dominant line merged" (Some 9) a_line;
    Alcotest.(check (pair int int)) "second run is the lone window" (4, 4)
      (b_first, b_last)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 storms, got %d" (List.length l))

let test_storm_threshold_floor () =
  (* a whisper of conflicts never reads as a storm: the bar is >= 4 *)
  let s = mk_series [ mk_window ~conflict_aborts:1 (); mk_window () ] in
  Alcotest.(check int) "floor" 4 (Episodes.storm_threshold s);
  Alcotest.(check int) "no storms" 0 (List.length (Episodes.detect s))

let test_tier_shift_detection () =
  let htm = mk_window ~busy:[| 10 |] () in
  let stm = mk_window ~busy:[| 10 |] ~stm_cycles:8 () in
  let idle = mk_window ~busy:[| 0 |] () in
  let s = mk_series [ htm; stm; idle; htm ] in
  let shifts =
    List.filter_map
      (function
        | Episodes.Tier_shift { window; from_; to_ } ->
          Some (window, Episodes.tier_name from_, Episodes.tier_name to_)
        | _ -> None)
      (Episodes.detect s)
  in
  (* idle windows are skipped: the stm->htm shift lands on window 3 *)
  Alcotest.(check (list (triple int string string)))
    "htm->stm then stm->htm"
    [ (1, "htm", "stm"); (3, "stm", "htm") ]
    shifts

(* --- codecs ------------------------------------------------------------ *)

(* Every line of the JSONL form, read back with the repo's one JSON
   parser, carries exactly the series it was written from: the header,
   then each window's counters, per-core busy cycles, sojourn sketch and
   line/PC tallies. A closed-loop run fills the tallies, a serving run
   the sojourn sketches. *)
let check_jsonl label (s : Series.t) =
  let module J = Stx_metrics.Json in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail (label ^ ": " ^ m)) fmt in
  let get k j = match J.member k j with Some v -> v | None -> fail "no field %s" k in
  let int k j = match J.as_int (get k j) with Some v -> v | None -> fail "%s: not an int" k in
  let list k j = match J.as_list (get k j) with Some l -> l | None -> fail "%s: not a list" k in
  let ints j = match J.as_list j with
    | Some l -> List.map (fun v -> Option.get (J.as_int v)) l
    | None -> fail "not a list"
  in
  let lines =
    String.split_on_char '\n' (Series.to_jsonl ~meta:[ ("k", "v") ] s)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> match J.parse l with Ok j -> j | Error e -> fail "%s" e)
  in
  let header, windows = (List.hd lines, List.tl lines) in
  Alcotest.(check (option string)) "schema" (Some "stx-telemetry")
    (J.as_string (get "schema" header));
  Alcotest.(check int) "version" 1 (int "version" header);
  Alcotest.(check int) "width" s.Series.width (int "width" header);
  Alcotest.(check int) "threads" s.Series.threads (int "threads" header);
  Alcotest.(check int) "windows" (Series.length s) (int "windows" header);
  Alcotest.(check (option string)) "meta" (Some "v") (J.as_string (get "k" header));
  Alcotest.(check int) "one line per window" (Series.length s) (List.length windows);
  List.iteri
    (fun i j ->
      let w = s.Series.windows.(i) in
      let counters =
        [
          ("window", i); ("hw_commits", Series.get w Series.hw_commits);
          ("irrevocable_commits", Series.get w Series.irrevocable_commits);
          ("stm_commits", Series.get w Series.stm_commits);
          ("conflict_aborts", Series.get w Series.conflict_aborts);
          ("locksub_aborts", Series.get w Series.locksub_aborts);
          ("capacity_aborts", Series.get w Series.capacity_aborts);
          ("explicit_aborts", Series.get w Series.explicit_aborts);
          ("stm_conflict_aborts", Series.get w Series.stm_conflict_aborts);
          ("stm_aborts", Series.get w Series.stm_aborts);
          ("lock_waits", Series.get w Series.lock_waits);
          ("lock_acquires", Series.get w Series.lock_acquires);
          ("lock_timeouts", Series.get w Series.lock_timeouts);
          ("stm_cycles", Series.get w Series.stm_cycles);
          ("lock_cycles", Series.get w Series.lock_cycles);
          ("offered", Series.get w Series.offered);
          ("completed", Series.get w Series.completed);
          ("queue_peak", Series.get w Series.queue_peak);
        ]
      in
      Alcotest.(check (list string)) "fields"
        (List.map fst counters @ [ "busy"; "sojourn"; "conf_lines"; "conf_pcs" ]
        |> List.sort compare)
        (List.map fst (Option.get (J.as_obj j)) |> List.sort compare);
      List.iter (fun (k, v) -> Alcotest.(check int) k v (int k j)) counters;
      Alcotest.(check (list int)) "busy" (Array.to_list w.busy) (ints (get "busy" j));
      let h = w.sojourn and sj = get "sojourn" j in
      Alcotest.(check (list int)) "sojourn count/sum/min/max"
        Stx_metrics.Hist.[ count h; sum h; min_value h; max_value h ]
        (List.map (fun k -> int k sj) [ "count"; "sum"; "min"; "max" ]);
      Alcotest.(check (list (list int))) "sojourn buckets"
        (List.map (fun (k, c, m) -> [ k; c; m ]) (Stx_metrics.Hist.buckets_full h))
        (List.map ints (list "buckets" sj));
      let pairs t = List.map (fun (id, c) -> [ id; c ]) (Stx_util.Stat.by_key t) in
      Alcotest.(check (list (list int))) "conf_lines" (pairs w.conf_lines)
        (List.map ints (list "conf_lines" j));
      Alcotest.(check (list (list int))) "conf_pcs" (pairs w.conf_pcs)
        (List.map ints (list "conf_pcs" j)))
    windows

let test_jsonl_parses_back () =
  let _, _, closed =
    run_with_telemetry
      (List.hd Stx_workloads.Registry.all)
      Stx_core.Mode.Staggered_hw
  in
  let module Serve = Stx_serve.Serve in
  let service = Option.get (Stx_workloads.Registry.find_service "memcached") in
  let cfg =
    Serve.config ~threads:4 ~seed:7 ~horizon:6_000 ~shards:1 ~telemetry_window:500
      ~arrival:(Stx_serve.Arrival.Poisson { rate = 6.0 })
      service
  in
  let served = Option.get (Serve.run ~jobs:1 cfg).Serve.telemetry in
  let some f (s : Series.t) = Array.exists f s.Series.windows in
  Alcotest.(check bool) "closed loop tallies conflicts" true
    (some
       (fun w ->
         Hashtbl.length w.Series.conf_lines > 0 && Hashtbl.length w.conf_pcs > 0)
       closed);
  Alcotest.(check bool) "serving fills sojourn sketches" true
    (some (fun w -> not (Stx_metrics.Hist.is_empty w.Series.sojourn)) served);
  check_jsonl "closed loop" closed;
  check_jsonl "serving" served

let test_csv_shape () =
  let _, _, online =
    run_with_telemetry
      (List.hd Stx_workloads.Registry.all)
      Stx_core.Mode.Staggered_hw
  in
  let csv = Series.to_csv ~meta:[ ("workload", "x") ] online in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  let data = List.filter (fun l -> l.[0] <> '#') lines in
  (* header + one row per window *)
  Alcotest.(check int) "rows" (Series.length online + 1) (List.length data);
  let cols s = List.length (String.split_on_char ',' s) in
  List.iter
    (fun row ->
      Alcotest.(check int) "column count" (cols (List.hd data)) (cols row))
    data

(* --- serve: shard-merged series independent of --jobs ------------------ *)

let test_serve_merge_jobs_invariant () =
  let module Serve = Stx_serve.Serve in
  let service =
    match Stx_workloads.Registry.find_service "memcached" with
    | Some s -> s
    | None -> Alcotest.fail "memcached service missing"
  in
  let cfg =
    Serve.config ~threads:4 ~seed:7 ~horizon:6_000 ~shards:3
      ~telemetry_window:500
      ~arrival:(Stx_serve.Arrival.Poisson { rate = 6.0 })
      service
  in
  let series jobs =
    match (Serve.run ~jobs cfg).Serve.telemetry with
    | Some s -> s
    | None -> Alcotest.fail "telemetry missing from serve report"
  in
  let sequential = series 1 and parallel = series 3 in
  match Series.diff sequential parallel with
  | [] -> ()
  | errs ->
    Alcotest.fail
      ("jobs changed the merged series:\n  " ^ String.concat "\n  " errs)

let suite =
  [
    Alcotest.test_case "online equals trace replay (all cells)" `Slow
      test_online_equals_replay;
    Alcotest.test_case "busy cycles conserved across windows" `Slow
      test_busy_sums_to_attempt_cycles;
    Alcotest.test_case "boundary: point vs span" `Quick
      test_boundary_point_and_span;
    Alcotest.test_case "span split across windows" `Quick
      test_span_split_across_windows;
    Alcotest.test_case "span clamped at time zero" `Quick
      test_span_clamped_at_zero;
    Alcotest.test_case "finalize pads and stays live" `Quick
      test_finalize_pads_and_stays_live;
    Alcotest.test_case "saturation: healthy run quiet" `Quick
      test_saturation_healthy_run_is_quiet;
    Alcotest.test_case "saturation: onset detected" `Quick
      test_saturation_onset_detected;
    Alcotest.test_case "saturation: must stay below" `Quick
      test_saturation_requires_staying_below;
    Alcotest.test_case "storms: runs merge, dominants merge" `Quick
      test_storm_run_merging_and_dominants;
    Alcotest.test_case "storms: threshold floor" `Quick
      test_storm_threshold_floor;
    Alcotest.test_case "tier shifts" `Quick test_tier_shift_detection;
    Alcotest.test_case "jsonl parses back to the series" `Slow test_jsonl_parses_back;
    Alcotest.test_case "csv shape" `Slow test_csv_shape;
    Alcotest.test_case "serve series independent of jobs" `Slow
      test_serve_merge_jobs_invariant;
  ]
