(* Run one benchmark under one runtime configuration and print the
   statistics — the quick way to poke at the system. *)

open Cmdliner
open Stx_machine
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

let parse_policy resolution capacity fallback =
  let axis flag parse v =
    match parse v with
    | Ok x -> x
    | Error msg ->
      Printf.eprintf "bad --%s %s: %s\n" flag v msg;
      exit 1
  in
  Stx_policy.make
    ~resolution:(axis "policy" Stx_policy.Resolution.of_string resolution)
    ~capacity:(axis "capacity" Stx_policy.Capacity.of_string capacity)
    ~fallback:(axis "fallback" Stx_policy.Fallback.of_string fallback)
    ()

(* several benchmarks at once: fan out over the Stx_runner domain pool,
   print each stats block in the requested order *)
let run_many benches mode threads seed scale jobs policy =
  let open Stx_runner in
  let specs =
    List.map
      (fun w ->
        Job.make ~policy ~workload:w.Workload.name ~mode ~threads ~seed ~scale
          ())
      benches
  in
  let batch = Sweep.run_batch ~jobs ~progress:true specs in
  let failed = ref false in
  List.iter2
    (fun w (_, outcome) ->
      match outcome with
      | Pool.Done r ->
        let stats = r.Stx_metrics.Run.stats in
        print_stats w.Workload.name mode threads stats;
        let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
        print_per_ab spec stats;
        print_newline ()
      | Pool.Failed msg ->
        failed := true;
        Printf.printf "%s / %s / %d threads: FAILED: %s\n\n" w.Workload.name
          (Mode.to_string mode) threads msg)
    benches batch.Sweep.results;
  if !failed then exit 1

let run list_benches bench mode threads seed scale trace raw_trace metrics
    telemetry telemetry_window lint jobs policy_s capacity_s fallback_s =
  let htm_policy = parse_policy policy_s capacity_s fallback_s in
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
          | None ->
            prerr_endline ("unknown benchmark: " ^ name ^ " (try --list)");
            exit 1)
        (String.split_on_char ',' bench)
  in
  let mode =
    match Mode.of_string mode with
    | Some m -> m
    | None ->
      prerr_endline ("unknown mode: " ^ mode ^ " (HTM|AddrOnly|Staggered+SW|Staggered)");
      exit 1
  in
  match benches with
  | [] ->
    prerr_endline "no benchmark given (try --list)";
    exit 1
  | _ :: _ :: _ ->
    if trace <> None || raw_trace <> None || metrics <> None || telemetry <> None
       || lint
    then begin
      prerr_endline
        "--trace/--raw-trace/--metrics/--telemetry/--lint need a single \
         benchmark";
      exit 1
    end;
    run_many benches mode threads seed scale jobs htm_policy
  | [ w ] ->
    if telemetry_window < 1 then begin
      prerr_endline "--telemetry-window must be positive";
      exit 1
    end;
    let cfg = Config.with_cores threads Config.default in
    (* telemetry always records a full trace too: the replay-equality
       check (online fold = trace replay) rides on every collection *)
    let tr =
      if trace <> None || raw_trace <> None || telemetry <> None then
        Some (Stx_trace.Trace.create ~threads ())
      else None
    in
    let telem =
      match telemetry with
      | Some _ ->
        Some (Stx_telemetry.Collect.create ~window:telemetry_window ~threads ())
      | None -> None
    in
    let collector =
      match metrics with
      | Some _ -> Some (Stx_metrics.Collect.create ~policy:htm_policy ())
      | None -> None
    in
    let on_event =
      let trace_h =
        match tr with
        | Some tr -> Stx_trace.Trace.handler tr
        | None -> fun ~time:_ _ -> ()
      in
      let chained =
        match collector with
        | None -> trace_h
        | Some c ->
          let metrics_h = Stx_metrics.Collect.handler c in
          fun ~time ev ->
            trace_h ~time ev;
            metrics_h ~time ev
      in
      match telem with
      | None -> chained
      | Some tc ->
        let telem_h = Stx_telemetry.Collect.handler tc in
        fun ~time ev ->
          chained ~time ev;
          telem_h ~time ev
    in
    let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
    let lint_errors =
      lint
      &&
      let a =
        Stx_analysis.Driver.analyze ~name:w.Workload.name
          ~capacity:htm_policy.Stx_policy.capacity spec.Machine.compiled
      in
      print_string (Stx_analysis.Driver.render a);
      print_string (Stx_analysis.Driver.render_layout a);
      Stx_analysis.Driver.has_errors a
    in
    let stats = Machine.run ~seed ~htm_policy ~cfg ~mode ~on_event spec in
    print_stats w.Workload.name mode threads stats;
    if not (Stx_policy.equal htm_policy Stx_policy.default) then
      Printf.printf "  policy             %s\n" (Stx_policy.label htm_policy);
    print_per_ab spec stats;
    (match (metrics, collector) with
    | Some file, Some c ->
      (* GC pressure is stamped on the exported copy only; the live
         registry must stay equal to a trace replay's *)
      let reg = Stx_metrics.Gcstats.stamp (Stx_metrics.Collect.registry c) in
      let oc = open_out file in
      output_string oc (Stx_metrics.Registry.to_json_string reg);
      output_char oc '\n';
      close_out oc;
      Printf.printf "  metrics            %d series -> %s\n"
        (Stx_metrics.Registry.cardinality reg) file;
      (match Stx_metrics.Collect.check reg stats with
      | Ok () ->
        Printf.printf "  metrics check      ok (registry reconciles with stats)\n%!"
      | Error errs ->
        Printf.printf "  metrics check      FAILED:\n";
        List.iter (fun e -> Printf.printf "    %s\n" e) errs;
        exit 1)
    | _ -> ());
    (match (telemetry, telem, tr) with
    | Some file, Some tc, Some tr ->
      let horizon = stats.Stats.total_cycles in
      let online = Stx_telemetry.Collect.finalize ~horizon tc in
      let replayed =
        Stx_telemetry.Collect.of_trace ~window:telemetry_window ~horizon tr
      in
      (* width/threads already live in the codec headers *)
      let meta =
        [
          ("workload", w.Workload.name);
          ("mode", Mode.to_string mode);
          ("seed", string_of_int seed);
          ("scale", string_of_float scale);
          ("policy", Stx_policy.label htm_policy);
        ]
      in
      let doc =
        if Filename.check_suffix file ".csv" then
          Stx_telemetry.Series.to_csv ~meta online
        else Stx_telemetry.Series.to_jsonl ~meta online
      in
      let oc = open_out file in
      output_string oc doc;
      close_out oc;
      Printf.printf "  telemetry          %d windows of %d cycles -> %s\n"
        (Stx_telemetry.Series.length online)
        telemetry_window file;
      List.iter
        (fun e ->
          Printf.printf "  episode            %s\n"
            (Stx_telemetry.Episodes.to_string online e))
        (Stx_telemetry.Episodes.detect online);
      if Stx_telemetry.Series.equal online replayed then
        Printf.printf "  telemetry check    ok (online = trace replay)\n%!"
      else begin
        Printf.printf "  telemetry check    FAILED:\n";
        List.iter
          (fun d -> Printf.printf "    %s\n" d)
          (Stx_telemetry.Series.diff online replayed);
        exit 1
      end
    | _ -> ());
    (match (raw_trace, tr) with
    | Some file, Some tr ->
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
      Stx_trace.Trace.write_events ~meta tr ~file;
      Printf.printf "  raw trace          %d events -> %s (stx_repro lint --validate-trace)\n"
        (Stx_trace.Trace.length tr) file
    | _ -> ());
    (match (trace, tr) with
    | Some file, Some tr -> (
      Stx_trace.Trace.write_chrome tr ~file;
      Printf.printf "  trace              %d events -> %s (chrome://tracing, Perfetto)\n"
        (Stx_trace.Trace.length tr) file;
      match Stx_trace.Trace.check tr stats with
      | Ok () -> Printf.printf "  trace check        ok (events reconcile with stats)\n%!"
      | Error errs ->
        Printf.printf "  trace check        FAILED:\n";
        List.iter (fun e -> Printf.printf "    %s\n" e) errs;
        exit 1)
    | _ -> ());
    if lint_errors then exit 1

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
  let mode_arg =
    Arg.(
      value
      & opt string "Staggered"
      & info [ "mode"; "m" ] ~doc:"HTM | AddrOnly | Staggered+SW | Staggered.")
  in
  let threads_arg =
    Arg.(value & opt int 16 & info [ "threads"; "t" ] ~doc:"Simulated threads.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed.") in
  let scale_arg =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Workload scale.")
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
  let telemetry_window_arg =
    Arg.(
      value
      & opt int 1000
      & info [ "telemetry-window" ] ~docv:"CYCLES"
          ~doc:"Telemetry window width in simulated cycles.")
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
  let jobs_arg =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "jobs"; "j" ]
          ~doc:"Parallel simulations when several benchmarks are given.")
  in
  let policy_arg =
    Arg.(
      value
      & opt string "requester-wins"
      & info [ "policy" ]
          ~doc:
            "Conflict-resolution policy: requester-wins (the paper's \
             hardware), responder-wins (suicide on conflict with an \
             established owner), or timestamp (karma: the older transaction \
             wins).")
  in
  let capacity_arg =
    Arg.(
      value
      & opt string "unbounded"
      & info [ "capacity" ]
          ~doc:
            "HTM capacity policy: unbounded, or bounded:R:W for a hard \
             limit of R read-set and W write-set cache lines (exceeding \
             either aborts with the capacity reason and goes straight to \
             the irrevocable fallback).")
  in
  let fallback_arg =
    Arg.(
      value
      & opt string "polite"
      & info [ "fallback" ]
          ~doc:
            "Fallback policy: polite[:N] (linear polite delay, irrevocable \
             after N attempts), backoff[:N[:BASE[:MAXEXP[:SEED]]]] \
             (exponential randomized backoff from a dedicated PRNG \
             stream), or htm-stm-lock[:N[:S]] (alias stm) — N hardware \
             attempts, then a TL2-style software tier for S attempts, \
             then the global lock.")
  in
  let term =
    Term.(
      const run $ list_arg $ bench_arg $ mode_arg $ threads_arg $ seed_arg
      $ scale_arg $ trace_arg $ raw_trace_arg $ metrics_arg $ telemetry_arg
      $ telemetry_window_arg $ lint_arg $ jobs_arg $ policy_arg $ capacity_arg
      $ fallback_arg)
  in
  let info =
    Cmd.info "stx_run" ~version:"1.0"
      ~doc:"Run one benchmark on the simulated HTM under a chosen runtime"
  in
  exit (Cmd.eval (Cmd.v info term))
