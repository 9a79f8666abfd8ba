(* Run one benchmark under one runtime configuration and print the
   statistics — the quick way to poke at the system. *)

open Cmdliner
open Stx_core
open Stx_sim
open Stx_workloads

let print_stats name mode threads (s : Stats.t) =
  Printf.printf "%s / %s / %d threads\n" name (Mode.to_string mode) threads;
  Printf.printf "  commits            %d\n" s.Stats.commits;
  Printf.printf "  aborts             %d (conflict %d, lock-subscription %d, explicit %d, capacity %d)\n"
    s.Stats.aborts s.Stats.conflict_aborts s.Stats.lock_sub_aborts
    s.Stats.explicit_aborts s.Stats.capacity_aborts;
  Printf.printf "  aborts per commit  %.2f\n" (Stats.aborts_per_commit s);
  if s.Stats.stm_commits + s.Stats.stm_aborts + s.Stats.stm_conflict_aborts > 0 then begin
    Printf.printf
      "  stm tier           %d commits, %d aborts (validation %d, hw-owned %d, \
       lock-subscription %d)\n"
      s.Stats.stm_commits s.Stats.stm_aborts s.Stats.stm_validation_aborts
      s.Stats.stm_hw_owned_aborts s.Stats.stm_locksub_aborts;
    Printf.printf "  stm interference   %d hw aborts by stm commits, %d validation cycles\n"
      s.Stats.stm_conflict_aborts s.Stats.stm_validation_cycles
  end;
  Printf.printf "  irrevocable        %d (%.1f%%)\n" s.Stats.irrevocable_entries
    (Stats.pct_irrevocable s);
  Printf.printf "  cycles (makespan)  %d\n" s.Stats.total_cycles;
  Printf.printf "  useful cycles      %d\n" s.Stats.useful_cycles;
  Printf.printf "  wasted cycles      %d (W/U %.2f)\n" s.Stats.wasted_cycles
    (Stats.wasted_over_useful s);
  Printf.printf "  %% time in TM       %.0f%%\n" (Stats.pct_tx_time s);
  Printf.printf "  advisory locks     %d acquired, %d timeouts, %d wait cycles\n"
    s.Stats.lock_acquires s.Stats.lock_timeouts s.Stats.lock_wait_cycles;
  Printf.printf "  ALPs executed      %d (%d went for a lock)\n" s.Stats.alps_executed
    s.Stats.alps_lock_attempts;
  Printf.printf "  policy decisions   precise %d / coarse %d / promoted %d / training %d\n"
    s.Stats.precise s.Stats.coarse s.Stats.promoted s.Stats.training;
  if s.Stats.accuracy_total > 0 then
    Printf.printf "  anchor accuracy    %.1f%% (%d/%d)\n" (Stats.accuracy s)
      s.Stats.accuracy_hits s.Stats.accuracy_total;
  Printf.printf "  instructions       %d (%d transactional)\n%!" s.Stats.insts
    s.Stats.tx_insts

let print_per_ab (spec : Machine.spec) (s : Stats.t) =
  let atomics = spec.Machine.compiled.Stx_compiler.Pipeline.prog.Stx_tir.Ir.atomics in
  if Array.length atomics > 1 then begin
    Printf.printf "  per atomic block:\n";
    Array.iter
      (fun (a : Stx_tir.Ir.atomic) ->
        let ab = Stats.ab s a.Stx_tir.Ir.ab_id in
        Printf.printf "    %-24s commits %-7d aborts %-7d locks %-6d irrev %d\n"
          a.Stx_tir.Ir.ab_name ab.Stats.ab_commits ab.Stats.ab_aborts
          ab.Stats.ab_locks ab.Stats.ab_irrevocable)
      atomics
  end

(* one reconciliation verdict; a divergence lists every difference and
   exits 1 *)
let print_check name ~ok = function
  | [] -> Printf.printf "  %-19sok (%s)\n%!" (name ^ " check") ok
  | errs ->
    Printf.printf "  %-19sFAILED:\n" (name ^ " check");
    List.iter (fun e -> Printf.printf "    %s\n" e) errs;
    exit 1

(* several benchmarks at once: prefetch them through an experiment
   context's domain pool, print each stats block in the requested order *)
let run_many benches mode threads seed scale jobs policy =
  let ctx = Stx_harness.Exp.create ~seed ~scale ~threads ~jobs ~policy () in
  Stx_harness.Exp.prefetch ~progress:true ctx
    (List.map (fun w -> (w, mode, threads)) benches);
  let failed = ref false in
  List.iter
    (fun w ->
      (* a cell that failed in the pool simulates once more, here *)
      match Stx_harness.Exp.run ctx w mode with
      | stats ->
        print_stats w.Workload.name mode threads stats;
        let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
        print_per_ab spec stats;
        print_newline ()
      | exception e ->
        failed := true;
        Printf.printf "%s / %s / %d threads: FAILED: %s\n\n" w.Workload.name
          (Mode.to_string mode) threads (Printexc.to_string e))
    benches;
  if !failed then exit 1

let run list_benches bench mode threads seed scale trace raw_trace metrics
    telemetry telemetry_window lint jobs htm_policy =
  if list_benches then begin
    List.iter
      (fun w ->
        Printf.printf "%-10s %-14s %s\n" w.Workload.name w.Workload.source
          w.Workload.description)
      Registry.all;
    exit 0
  end;
  let benches =
    if bench = "all" then Registry.all
    else
      List.map
        (fun name ->
          match Registry.find name with
          | Some w -> w
          | None -> Stx_cli.fail ("unknown benchmark: " ^ name ^ " (try --list)"))
        (String.split_on_char ',' bench)
  in
  match benches with
  | [ w ] ->
    let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
    let lint_errors =
      lint
      &&
      let a =
        Stx_analysis.Driver.analyze ~name:w.Workload.name
          ~resolution:htm_policy.Stx_policy.resolution
          ~capacity:htm_policy.Stx_policy.capacity spec.Machine.compiled
      in
      print_string (Stx_analysis.Driver.render a);
      print_string (Stx_analysis.Driver.render_layout a);
      Stx_analysis.Driver.has_errors a
    in
    (* no flag, no observer: the machine then builds no event at all *)
    let o =
      Stx_harness.Exp.observe
        ~trace:(trace <> None || raw_trace <> None)
        ~metrics:(metrics <> None)
        ?telemetry:(Option.map (fun _ -> telemetry_window) telemetry)
        ~seed ~policy:htm_policy ~threads ~mode spec
    in
    let stats = o.Stx_harness.Exp.stats in
    print_stats w.Workload.name mode threads stats;
    if not (Stx_policy.equal htm_policy Stx_policy.default) then
      Printf.printf "  policy             %s\n" (Stx_policy.label htm_policy);
    print_per_ab spec stats;
    let meta =
      [
        ("workload", w.Workload.name);
        ("mode", Mode.to_string mode);
        ("threads", string_of_int threads);
        ("seed", string_of_int seed);
        ("scale", string_of_float scale);
        ("policy", Stx_policy.label htm_policy);
      ]
    in
    (* the metrics check carries the event stream's verdict, which
       reconciles the counters the export writes from the stats *)
    (match (metrics, o.metrics) with
    | Some file, Some c ->
      Stx_cli.write_metrics file (Stx_metrics.Collect.export c stats);
      print_check "metrics" ~ok:"registry reconciles with stats"
        (Stx_harness.Exp.failures { o with telemetry_errors = [] })
    | _ -> ());
    (match (telemetry, o.telemetry) with
    | Some file, Some online ->
      (* width/threads already live in the codec headers *)
      Stx_cli.write_telemetry ~meta:(List.remove_assoc "threads" meta) file online;
      Printf.printf "  telemetry          %d windows of %d cycles -> %s\n"
        (Stx_telemetry.Series.length online)
        telemetry_window file;
      Stx_cli.print_episodes online;
      print_check "telemetry" ~ok:"online = trace replay" o.telemetry_errors
    | _ -> ());
    (match (raw_trace, o.trace) with
    | Some file, Some tr ->
      Stx_cli.write file (Stx_trace.Trace.write_events ~meta tr);
      Printf.printf "  raw trace          %d events -> %s (stx_repro lint --validate-trace)\n"
        (Stx_trace.Trace.length tr) file
    | _ -> ());
    (match (trace, o.trace) with
    | Some file, Some tr ->
      Stx_cli.write_file file (Stx_trace.Trace.to_chrome_json tr);
      Printf.printf "  trace              %d events -> %s (chrome://tracing, Perfetto)\n"
        (Stx_trace.Trace.length tr) file;
      print_check "trace" ~ok:"events reconcile with stats" o.stream_errors
    | _ -> ());
    (* --raw-trace or --telemetry alone: no line above carried the stream *)
    if o.stream_errors <> [] then print_check "trace" ~ok:"" o.stream_errors;
    if lint_errors then exit 1
  | _ ->
    if trace <> None || raw_trace <> None || metrics <> None || telemetry <> None
       || lint
    then
      Stx_cli.fail
        "--trace/--raw-trace/--metrics/--telemetry/--lint need a single \
         benchmark";
    run_many benches mode threads seed scale jobs htm_policy

let () =
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available benchmarks.")
  in
  let bench_arg =
    Arg.(
      value
      & opt string "list-hi"
      & info [ "bench"; "b" ]
          ~doc:
            "Benchmark: a name, a comma-separated list, or \"all\". With \
             several benchmarks the runs fan out over --jobs domains.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record every runtime event, write the stream to $(docv) as \
             Chrome trace_event JSON (open in chrome://tracing or Perfetto), \
             and cross-check the event stream against the printed statistics \
             (non-zero exit on divergence). Single benchmark only.")
  in
  let raw_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw-trace" ] ~docv:"FILE"
          ~doc:
            "Record every runtime event and write the stream to $(docv) in \
             the raw line-oriented codec, replayable by $(b,stx_repro lint \
             --validate-trace). Single benchmark only.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect the full metrics registry (latency/retry/set-size \
             histograms, advisory-lock wait and backoff distributions, the \
             per-atomic-block phase profile) during the run, write it to \
             $(docv) as a stable versioned JSON snapshot, and reconcile it \
             against the printed statistics (non-zero exit on divergence). \
             Single benchmark only.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Collect a tumbling-window time series (commits, aborts by kind, \
             lock waits, tier occupancy, per-core busy cycles) during the \
             run, write it to $(docv) — CSV when the name ends in .csv, \
             JSON-lines otherwise — print detected episodes (conflict \
             storms, tier shifts), and cross-check the online series \
             against an offline trace replay (non-zero exit on divergence). \
             Single benchmark only.")
  in
  let lint_arg =
    Arg.(
      value
      & flag
      & info [ "lint" ]
          ~doc:
            "Run the static conflict analysis over the compiled program and \
             print its report before simulating; exit non-zero if it emits \
             error diagnostics. Single benchmark only.")
  in
  let term =
    Term.(
      const run $ list_arg $ bench_arg $ Stx_cli.mode $ Stx_cli.threads
      $ Stx_cli.seed $ Stx_cli.scale $ trace_arg $ raw_trace_arg $ metrics_arg
      $ telemetry_arg $ Stx_cli.telemetry_window $ lint_arg $ Stx_cli.jobs
      $ Stx_cli.policy)
  in
  let info =
    Cmd.info "stx_run" ~version:"1.0"
      ~doc:"Run one benchmark on the simulated HTM under a chosen runtime"
  in
  exit (Cmd.eval (Cmd.v info term))
