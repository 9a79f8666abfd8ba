(* Reproduction driver: regenerate every table and figure of the paper's
   evaluation, plus the ablation studies.

   Every invocation simulates from scratch. Simulation cells are executed
   by the Stx_runner domain pool (--jobs), which is transparent: the
   simulator is deterministic per (workload, mode, threads, seed, scale,
   policy), so every --jobs value prints byte-identical reports. *)

open Cmdliner
open Stx_harness

let ctx_term =
  let make seed scale threads jobs policy =
    Exp.create ~seed ~scale ~threads ~jobs ~policy ()
  in
  Term.(
    const make $ Stx_cli.seed $ Stx_cli.scale $ Stx_cli.threads $ Stx_cli.jobs
    $ Stx_cli.policy)

let section title body =
  Printf.printf "==== %s ====\n%s\n%!" title body

(* an observed run's errors, after everything it printed; true if any *)
let print_failures = function
  | [] -> false
  | errs ->
    print_endline "  checks FAILED:";
    List.iter (fun e -> print_endline ("    " ^ e)) errs;
    true

let check_failures errs = if print_failures errs then exit 1

let cmd_of name title cells render =
  let run c =
    Exp.prefetch ~progress:true c (cells c);
    section title (render c)
  in
  Cmd.v (Cmd.info name ~doc:title) Term.(const run $ ctx_term)

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Figure 1: the staggering schematic, from real runs")
    Term.(const (fun () -> section "Figure 1" (Reports.fig1 ())) $ const ())

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Simulator configuration (Table 2)")
    Term.(const (fun () -> section "Table 2" (Reports.table2 ())) $ const ())

let bench_arg =
  Arg.(
    value
    & opt string "genome"
    & info [ "bench" ] ~doc:"Benchmark name (see `stx_run --list`).")

let format_arg =
  let parse = function
    | "text" -> Stx_analysis.Driver.Text
    | "tsv" -> Stx_analysis.Driver.Tsv
    | f -> Stx_cli.fail ("unknown format " ^ f ^ " (text|tsv)")
  in
  Term.(
    const parse
    $ Arg.(
        value
        & opt string "text"
        & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,tsv)."))

let anchors_cmd =
  let run bench =
    section ("anchor tables: " ^ bench) (Reports.anchor_tables (Stx_cli.bench bench))
  in
  Cmd.v
    (Cmd.info "anchors" ~doc:"Unified anchor tables of a benchmark (Figure 3)")
    Term.(const run $ bench_arg)

let per_bench_cmd name doc cells render =
  let run c bench =
    let w = Stx_cli.bench bench in
    Exp.prefetch ~progress:true c (cells c w);
    let text, errs = render c w in
    section (name ^ ": " ^ bench) text;
    check_failures errs
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ ctx_term $ bench_arg)

let scaling_cmd =
  per_bench_cmd "scaling" "Thread-count sweep for one benchmark"
    Reports.scaling_cells (fun c w -> (Reports.scaling c w, []))

let profile_cmd =
  let run c bench format =
    let w = Stx_cli.bench bench in
    check_failures
      (match format with
      | Stx_analysis.Driver.Text ->
        let text, errs = Reports.profile c w in
        section ("profile: " ^ bench) text;
        errs
      | Stx_analysis.Driver.Tsv ->
        let text, errs = Reports.profile_tsv c w in
        print_string text;
        errs)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-atomic-block phase profile: speculative prefix vs serialized \
          suffix (--format tsv for machine-readable rows), cross-checking \
          each mode's event stream and metrics (non-zero exit on any \
          reconciliation failure)")
    Term.(const run $ ctx_term $ bench_arg $ format_arg)

(* hotspots observes its own traced run, so it prefetches nothing *)
let hotspots_cmd =
  per_bench_cmd "hotspots"
    "Top conflicting lines/PCs of one benchmark, from a traced baseline run \
     (non-zero exit on any reconciliation failure)"
    (fun _ _ -> []) Reports.hotspots

let scaling_all_cmd =
  let run c =
    Exp.prefetch ~progress:true c
      (List.concat_map (Reports.scaling_cells c) Stx_workloads.Registry.all);
    List.iter
      (fun w -> section ("scaling: " ^ w.Stx_workloads.Workload.name) (Reports.scaling c w))
      Stx_workloads.Registry.all
  in
  Cmd.v (Cmd.info "scaling-all" ~doc:"Thread sweeps for every benchmark")
    Term.(const run $ ctx_term)

let fig7avg_cmd =
  let run c =
    section "Figure 7 (seed-averaged)" (Reports.fig7_repeated c)
  in
  Cmd.v
    (Cmd.info "fig7-avg" ~doc:"Figure 7 averaged over 5 seeds (paper methodology)")
    Term.(const run $ ctx_term)

let export_cmd =
  let out_arg =
    Arg.(value & opt string "results" & info [ "out" ] ~doc:"Output directory.")
  in
  let run c out =
    Exp.prefetch ~progress:true c (Export.cells c);
    let paths =
      try Export.write_all c ~dir:out
      with Sys_error msg -> Stx_cli.fail_file "cannot write" out msg
    in
    List.iter print_endline paths
  in
  Cmd.v (Cmd.info "export" ~doc:"Write the evaluation data as TSV files")
    Term.(const run $ ctx_term $ out_arg)

let ablations_cmd =
  let run seed scale = section "ablations" (Ablations.all ~seed ~scale ()) in
  Cmd.v (Cmd.info "ablations" ~doc:"Design-choice ablation studies")
    Term.(const run $ Stx_cli.seed $ Stx_cli.scale)

(* ---------------------------------------------------------------- *)
(* stx_repro lint: static conflict analysis + trace cross-validation *)

let lint_cmd =
  let open Stx_analysis in
  let bench_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "bench" ]
          ~doc:"Benchmark name, comma-separated list, or \"all\".")
  in
  let mode_arg =
    Arg.(
      value
      & opt string "both"
      & info [ "mode" ]
          ~doc:"Anchor-selection mode to lint: $(b,dsa), $(b,naive) or \
                $(b,both).")
  in
  let validate_arg =
    Arg.(
      value
      & flag
      & info [ "validate" ]
          ~doc:
            "Run a traced Staggered simulation per benchmark and \
             cross-validate the static conflict graph against the dynamic \
             conflict edges (non-zero exit on a soundness violation, or \
             when the run's event stream does not reconcile).")
  in
  let validate_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate-trace" ] ~docv:"FILE"
          ~doc:
            "Cross-validate against a raw event capture written by \
             $(b,stx_run --raw-trace). Single benchmark only; the \
             capture's workload metadata must match.")
  in
  let stripes_arg =
    Arg.(
      value
      & flag
      & info [ "stripes" ]
          ~doc:
            "Run the STX109 STM lock-stripe aliasing lint over the \
             validation trace: hot conflicting lines that hash onto the \
             same striped write-lock. Needs $(b,--validate) or \
             $(b,--validate-trace).")
  in
  let run c bench mode format validate vtrace stripes =
    let benches =
      if bench = "all" then Stx_workloads.Registry.all
      else List.map Stx_cli.bench (String.split_on_char ',' bench)
    in
    let modes =
      match mode with
      | "dsa" -> [ Stx_compiler.Anchors.Dsa_guided ]
      | "naive" -> [ Stx_compiler.Anchors.Naive ]
      | "both" -> [ Stx_compiler.Anchors.Dsa_guided; Stx_compiler.Anchors.Naive ]
      | m -> Stx_cli.fail ("unknown mode " ^ m ^ " (dsa|naive|both)")
    in
    (match (vtrace, benches) with
    | Some _, _ :: _ :: _ -> Stx_cli.fail "--validate-trace needs a single --bench"
    | _ -> ());
    if stripes && (not validate) && vtrace = None then
      Stx_cli.fail "--stripes needs a trace: add --validate or --validate-trace";
    let mode_name = function
      | Stx_compiler.Anchors.Dsa_guided -> "dsa"
      | Stx_compiler.Anchors.Naive -> "naive"
    in
    let failed = ref false in
    let check_validation analysis v =
      print_string (Driver.render_validation ~format analysis v);
      if not (Validate.sound v) then failed := true
    in
    let check_stripes name tr =
      if stripes then begin
        let diags = Lints.stripe_aliasing tr in
        match format with
        | Driver.Text ->
          Printf.printf "== stripe aliasing: %s ==\n" name;
          if diags = [] then
            print_string "  no aliased stripes among hot conflicting lines\n"
          else
            List.iter
              (fun d -> Printf.printf "  %s\n" (Diag.render_text d))
              diags
        | Driver.Tsv ->
          List.iter
            (fun d -> Printf.printf "%s\t%s\n" name (Diag.render_tsv d))
            diags
      end
    in
    List.iter
      (fun w ->
        let analyses =
          List.map
            (fun m ->
              let spec =
                Stx_workloads.Workload.spec ~anchor_mode:m
                  ~scale:(Exp.scale c) w
              in
              let name =
                Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
                  (mode_name m)
              in
              ( m,
                spec,
                Driver.analyze ~name
                  ~resolution:(Exp.policy c).Stx_policy.resolution
                  ~capacity:(Exp.policy c).Stx_policy.capacity
                  spec.Stx_sim.Machine.compiled ))
            modes
        in
        List.iter
          (fun (_, _, a) ->
            print_string (Driver.render ~format a);
            print_string (Driver.render_layout ~format a);
            if Driver.has_errors a then failed := true)
          analyses;
        (* validation uses the Dsa_guided compile when linted, else the
           first one — the conflict graph is instrumentation-independent *)
        let _, vspec, vanalysis =
          match
            List.find_opt
              (fun (m, _, _) -> m = Stx_compiler.Anchors.Dsa_guided)
              analyses
          with
          | Some x -> x
          | None -> List.hd analyses
        in
        if validate then begin
          let o =
            Exp.observe ~trace:true ~seed:(Exp.seed c) ~policy:(Exp.policy c)
              ~threads:(Exp.threads c) ~mode:Stx_core.Mode.Staggered_hw vspec
          in
          let tr = Option.get o.Exp.trace in
          check_validation vanalysis (Driver.validate vanalysis tr);
          check_stripes w.Stx_workloads.Workload.name tr;
          let name = w.Stx_workloads.Workload.name ^ ": " in
          if print_failures (List.map (( ^ ) name) (Exp.failures o)) then
            failed := true
        end;
        match vtrace with
        | None -> ()
        | Some file ->
          let bad msg = Stx_cli.fail_file "bad --validate-trace" file msg in
          let tr, meta =
            try Stx_trace.Trace.read_events ~file
            with Sys_error msg | Stx_trace.Trace.Codec_error msg -> bad msg
          in
          (match List.assoc_opt "workload" meta with
          | Some wl when wl <> w.Stx_workloads.Workload.name ->
            Stx_cli.fail
              (Printf.sprintf "capture %s was recorded on workload %s, not %s"
                 file wl w.Stx_workloads.Workload.name)
          | _ -> ());
          (* the replay indexes per-block tables with the capture's ids *)
          let blocks =
            Array.length vspec.Stx_sim.Machine.compiled.Stx_compiler.Pipeline.unified
          in
          Stx_trace.Trace.iter tr (fun ~time:_ ev ->
              match Stx_sim.Machine.ab_of ev with
              | Some ab when ab >= blocks ->
                bad
                  (Printf.sprintf "block %d out of range 0..%d for %s" ab (blocks - 1)
                     w.Stx_workloads.Workload.name)
              | _ -> ());
          check_validation vanalysis (Driver.validate vanalysis tr);
          check_stripes w.Stx_workloads.Workload.name tr)
      benches;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static conflict analysis: lint the compiler's anchor/ALP \
          decisions and (optionally) cross-validate the static conflict \
          graph against a simulation's dynamic conflicts")
    Term.(
      const run $ ctx_term $ bench_arg $ mode_arg $ format_arg $ validate_arg
      $ validate_trace_arg $ stripes_arg)

(* ---------------------------------------------------------------- *)
(* stx_repro policies: conflict-resolution comparison table          *)

let quick_arg =
  Arg.(
    value
    & flag
    & info [ "quick" ]
        ~doc:"Small inputs (scale 0.05, 4 threads) — the CI smoke configuration.")

let sized c quick = if quick then (0.05, 4) else (Exp.scale c, Exp.threads c)

(* a policies or hybrid cell: the metrics collector and the online
   checker attached, no capture kept *)
let checked_cell ~seed ~scale ~threads ~policy ~mode w =
  let spec =
    Stx_workloads.Workload.spec ~instrument:(Stx_core.Mode.uses_alps mode)
      ~scale w
  in
  let o = Exp.observe ~metrics:true ~seed ~policy ~threads ~mode spec in
  (o.Exp.stats, Exp.failures o)

let policies_cmd =
  let run c bench quick =
    let w = Stx_cli.bench bench in
    let scale, threads = sized c quick in
    let seed = Exp.seed c in
    let base = Exp.policy c in
    let modes = [ Stx_core.Mode.Baseline; Stx_core.Mode.Staggered_hw ] in
    let failed = ref false in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "%s, seed %d, scale %g, %d threads (capacity %s, fallback %s)\n"
         w.Stx_workloads.Workload.name seed scale threads
         (Stx_policy.Capacity.to_string base.Stx_policy.capacity)
         (Stx_policy.Fallback.to_string base.Stx_policy.fallback));
    Buffer.add_string buf
      (Printf.sprintf "%-13s %-15s %8s %8s %9s %9s %6s %10s %12s  %s\n" "mode"
         "resolution" "commits" "aborts" "conflict" "capacity" "irrev"
         "ab/commit" "cycles" "checks");
    let cells =
      List.concat_map
        (fun mode -> List.map (fun r -> (mode, r)) Stx_policy.Resolution.all)
        modes
    in
    let cell (mode, resolution) =
      let policy = { base with Stx_policy.resolution } in
      checked_cell ~seed ~scale ~threads ~policy ~mode w
    in
    List.iter2
      (fun (mode, resolution) (s, errs) ->
        if errs <> [] then failed := true;
        Buffer.add_string buf
          (Printf.sprintf "%-13s %-15s %8d %8d %9d %9d %6d %10.2f %12d  %s\n"
             (Stx_core.Mode.to_string mode)
             (Stx_policy.Resolution.to_string resolution)
             s.Stx_sim.Stats.commits s.Stx_sim.Stats.aborts
             s.Stx_sim.Stats.conflict_aborts
             s.Stx_sim.Stats.capacity_aborts
             s.Stx_sim.Stats.irrevocable_entries
             (Stx_sim.Stats.aborts_per_commit s)
             s.Stx_sim.Stats.total_cycles
             (if errs = [] then "ok" else "FAILED"));
        List.iter
          (fun e -> Buffer.add_string buf ("    " ^ e ^ "\n"))
          errs)
      cells
      (Stx_cli.pool_map ~jobs:(Exp.jobs c) cell cells);
    section ("policies: " ^ bench) (Buffer.contents buf);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:
         "Compare the conflict-resolution policies (requester-wins, \
          responder-wins, timestamp) on one benchmark, cross-checking the \
          event stream and the metrics registry under each (non-zero exit \
          on any reconciliation failure)")
    Term.(const run $ ctx_term $ bench_arg $ quick_arg)

(* stx_repro hybrid: lock-only vs htm-stm-lock fallback comparison    *)

let hybrid_cmd =
  let run c quick =
    let scale, threads = sized c quick in
    let seed = Exp.seed c in
    let base = Exp.policy c in
    let hw_retries = 4 and stm_retries = 8 in
    let lock_only =
      { base with Stx_policy.fallback = Stx_policy.Fallback.Polite { retries = Some hw_retries } }
    in
    let hybrid =
      { base with
        Stx_policy.fallback =
          Stx_policy.Fallback.Stm_tier { retries = Some hw_retries; stm_retries } }
    in
    let modes =
      [ Stx_core.Mode.Baseline; Stx_core.Mode.Addr_only;
        Stx_core.Mode.Staggered_sw; Stx_core.Mode.Staggered_hw ]
    in
    let failed = ref false in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "seed %d, scale %g, %d threads: %s vs %s\n" seed scale threads
         (Stx_policy.Fallback.to_string lock_only.Stx_policy.fallback)
         (Stx_policy.Fallback.to_string hybrid.Stx_policy.fallback));
    Buffer.add_string buf
      (Printf.sprintf "%-11s %-13s %9s %7s %12s %9s %7s %7s %12s %7s  %s\n"
         "bench" "mode" "commits" "irrev" "cycles" "commits" "irrev" "stm"
         "cycles" "d-irrev" "checks");
    let cell w mode policy = checked_cell ~seed ~scale ~threads ~policy ~mode w in
    let rows =
      List.concat_map
        (fun w -> List.map (fun mode -> (w, mode)) modes)
        Stx_workloads.Registry.all
    in
    List.iter2
      (fun ((w : Stx_workloads.Workload.t), mode) ((ls, lerrs), (hs, herrs)) ->
        let errs = lerrs @ herrs in
        if errs <> [] then failed := true;
        Buffer.add_string buf
          (Printf.sprintf
             "%-11s %-13s %9d %7d %12d %9d %7d %7d %12d %7d  %s\n"
             w.Stx_workloads.Workload.name
             (Stx_core.Mode.to_string mode)
             ls.Stx_sim.Stats.commits ls.Stx_sim.Stats.irrevocable_entries
             ls.Stx_sim.Stats.total_cycles hs.Stx_sim.Stats.commits
             hs.Stx_sim.Stats.irrevocable_entries
             hs.Stx_sim.Stats.stm_commits hs.Stx_sim.Stats.total_cycles
             (hs.Stx_sim.Stats.irrevocable_entries
             - ls.Stx_sim.Stats.irrevocable_entries)
             (if errs = [] then "ok" else "FAILED"));
        List.iter (fun e -> Buffer.add_string buf ("    " ^ e ^ "\n")) errs)
      rows
      (Stx_cli.pool_map ~jobs:(Exp.jobs c)
         (fun (w, mode) -> (cell w mode lock_only, cell w mode hybrid))
         rows);
    Buffer.add_string buf
      "left: lock-only fallback; right: htm-stm-lock. stm: software-tier \
       commits. d-irrev: hybrid minus lock-only irrevocable entries\n\
       (negative = the software tier absorbed work the global lock used to \
       serialize).\n";
    section "hybrid: lock-only vs htm-stm-lock" (Buffer.contents buf);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "hybrid"
       ~doc:
         "Compare the lock-only fallback against the htm-stm-lock software \
          tier on every benchmark and mode, cross-checking the event stream \
          and the metrics registry in every cell (non-zero exit on any \
          reconciliation failure)")
    Term.(const run $ ctx_term $ quick_arg)

let serve_cmd =
  let module Serve = Stx_serve.Serve in
  let module Arrival = Stx_serve.Arrival in
  let module Keys = Stx_serve.Keys in
  let rates_arg =
    Arg.(
      value
      & opt string "2,6,10,14"
      & info [ "rates" ]
          ~doc:
            "Comma-separated offered rates to sweep, requests per kilocycle \
             (Poisson arrivals).")
  in
  let serve_bench_arg =
    Arg.(
      value
      & opt string "memcached"
      & info [ "bench" ] ~doc:"Served workload (see `stx_serve --list`).")
  in
  let keys_arg =
    Arg.(
      value
      & opt string "zipf:0.9"
      & info [ "keys" ] ~doc:"Key popularity: $(b,uniform) or $(b,zipf:THETA).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt int 50_000
      & info [ "horizon" ] ~doc:"Cycles during which requests arrive.")
  in
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Sub-runs per cell.")
  in
  let serve_seed_arg =
    Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Serving seed.")
  in
  let cores_arg =
    Arg.(
      value
      & opt string ""
      & info [ "cores" ]
          ~doc:
            "Comma-separated core counts to sweep (e.g. 16,32,64,128); \
             empty uses the context's thread count once.")
  in
  let shard_by_arg =
    Arg.(
      value
      & opt string "seed"
      & info [ "shard-by" ]
          ~doc:"Shard the request stream by $(b,seed) or by $(b,key) range.")
  in
  let run bench rates_s keys_s horizon shards threads seed jobs cores_s
      shard_by_s =
    let service =
      match Stx_workloads.Registry.find_service bench with
      | Some s -> s
      | None ->
        Stx_cli.fail ("unknown service: " ^ bench ^ " (see stx_serve --list)")
    in
    let keys = Stx_cli.parsed "keys" Keys.of_string keys_s in
    let shard_by = Stx_cli.parsed "shard-by" Serve.shard_by_of_string shard_by_s in
    let horizon = Stx_cli.positive "horizon" horizon
    and shards = Stx_cli.positive "shards" shards in
    let rates =
      List.map
        (fun r ->
          match float_of_string_opt (String.trim r) with
          | Some f when f > 0.0 -> f
          | _ -> Stx_cli.fail ("bad rate: " ^ r))
        (String.split_on_char ',' rates_s)
    in
    let cores_list =
      if cores_s = "" then [ threads ]
      else
        List.map
          (fun c ->
            match int_of_string_opt (String.trim c) with
            | Some n when n >= 1 -> n
            | _ -> Stx_cli.fail ("bad core count: " ^ c))
          (String.split_on_char ',' cores_s)
    in
    let modes =
      [ Stx_core.Mode.Baseline; Stx_core.Mode.Addr_only;
        Stx_core.Mode.Staggered_sw; Stx_core.Mode.Staggered_hw ]
    in
    let buf = Buffer.create 2048 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pf "open-loop %s: Poisson arrivals, %s keys, 70%% get, horizon %d cycles,\n"
      bench keys_s horizon;
    pf "%d shards (%s-sharded), seed %d; rates in requests/kilocycle,\n"
      shards (Serve.shard_by_to_string shard_by) seed;
    pf "latencies in cycles (sojourn: arrival to commit)\n";
    let failed = ref false in
    List.iter
      (fun cores ->
        pf "\n-- %d cores --\n" cores;
        pf "%-8s %-13s %-9s %-8s %-8s %-8s %-8s %s\n" "offered" "mode"
          "achieved" "p50" "p95" "p99" "p99.9" "sat";
        List.iter
          (fun rate ->
            List.iter
              (fun mode ->
                let cfg =
                  Serve.config ~mode ~threads:cores ~seed ~keys ~horizon
                    ~shards ~shard_by
                    ~arrival:(Arrival.Poisson { rate }) service
                in
                let report = Serve.run ~jobs cfg in
                if report.Serve.errors <> [] then begin
                  failed := true;
                  List.iter (fun e -> pf "  RECONCILIATION: %s\n" e)
                    report.Serve.errors
                end;
                let q p =
                  match Serve.sojourn report with
                  | Some h -> Stx_metrics.Hist.quantile h p
                  | None -> 0
                in
                pf "%-8.2f %-13s %-9.2f %-8d %-8d %-8d %-8d %s\n"
                  report.Serve.offered
                  (Stx_core.Mode.to_string mode)
                  report.Serve.achieved (q 0.50) (q 0.95) (q 0.99) (q 0.999)
                  (if report.Serve.saturated then "yes" else ""))
              modes;
            pf "\n")
          rates)
      cores_list;
    section ("serve: " ^ bench) (Buffer.contents buf);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Offered-load sweep of the open-loop serving harness: achieved \
          throughput and sojourn-latency tail per runtime mode, showing \
          where each mode saturates, optionally swept over core counts \
          (non-zero exit on any reconciliation \
          failure)")
    Term.(
      const run $ serve_bench_arg $ rates_arg $ keys_arg $ horizon_arg
      $ shards_arg $ Stx_cli.threads $ serve_seed_arg $ Stx_cli.jobs $ cores_arg
      $ shard_by_arg)

(* ---------------------------------------------------------------- *)
(* stx_repro report: one run as a self-contained HTML file           *)

let report_cmd =
  let window_arg =
    Arg.(
      value
      & opt int 1000
      & info [ "window" ] ~docv:"CYCLES"
          ~doc:"Telemetry window width in simulated cycles.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "stx_report.html"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the HTML report.")
  in
  let run c bench mode window out =
    let w = Stx_cli.bench bench in
    if window < 1 then Stx_cli.fail "--window must be positive";
    let seed = Exp.seed c
    and scale = Exp.scale c
    and threads = Exp.threads c
    and htm_policy = Exp.policy c in
    let spec =
      Stx_workloads.Workload.spec ~instrument:(Stx_core.Mode.uses_alps mode)
        ~scale w
    in
    (* the report renders all three planes, so it observes all three *)
    let o =
      Exp.observe ~trace:true ~metrics:true ~telemetry:window ~seed
        ~policy:htm_policy ~threads ~mode spec
    in
    let stats = o.Exp.stats and series = Option.get o.Exp.telemetry in
    let episodes = Stx_telemetry.Episodes.detect series in
    let html =
      Htmlreport.render
        {
          Htmlreport.workload = w.Stx_workloads.Workload.name;
          mode;
          seed;
          scale;
          threads;
          policy = htm_policy;
          series;
          episodes;
          stats;
          registry = Stx_metrics.Collect.registry (Option.get o.Exp.metrics);
          attribution = Stx_trace.Trace.abort_attribution (Option.get o.Exp.trace);
          ab_name = Reports.ab_name w;
        }
    in
    Stx_cli.write_file out html;
    Printf.printf "report: %s %s -> %s (%d bytes, %d windows, %d episodes)\n"
      w.Stx_workloads.Workload.name (Stx_core.Mode.to_string mode) out
      (String.length html)
      (Stx_telemetry.Series.length series)
      (List.length episodes);
    check_failures (Exp.failures o)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run one benchmark under one mode with tracing, metrics and \
          windowed telemetry, and render everything — time series with \
          episode annotations, per-core occupancy, conflict hot spots, the \
          per-atomic-block phase profile and the policy bundle — as a \
          single self-contained HTML file (inline CSS, hand-rolled SVG, no \
          external assets; byte-deterministic for a fixed seed), \
          cross-checking the trace, metrics and telemetry it renders \
          (non-zero exit on any reconciliation failure)")
    Term.(
      const run $ ctx_term $ bench_arg $ Stx_cli.mode $ window_arg $ out_arg)

let all_cmd =
  let run c =
    Exp.prefetch ~progress:true c
      (Exp.standard_cells c @ Reports.table3_cells c);
    section "Table 2" (Reports.table2 ());
    section "Figure 1" (Reports.fig1 ());
    section "Table 1" (Reports.table1 c);
    section "Table 3" (Reports.table3 c);
    section "Table 4" (Reports.table4 c);
    section "Figure 7" (Reports.fig7 c);
    section "Figure 8" (Reports.fig8 c);
    section "Serialization granularity (Result 2)" (Reports.granularity c)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Every table and figure of the evaluation")
    Term.(const run $ ctx_term)

let () =
  let info =
    Cmd.info "stx_repro" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'Conflict Reduction in Hardware \
         Transactions Using Advisory Locks' (SPAA 2015)"
  in
  let cmds =
    [
      cmd_of "table1" "Table 1: baseline HTM contention" Reports.table1_cells
        Reports.table1;
      table2_cmd;
      cmd_of "table3" "Table 3: instrumentation statistics" Reports.table3_cells
        Reports.table3;
      cmd_of "table4" "Table 4: benchmark characteristics" Reports.table4_cells
        Reports.table4;
      cmd_of "granularity" "Whole-txn scheduling vs staggering (Result 2)"
        Reports.granularity_cells Reports.granularity;
      fig1_cmd;
      cmd_of "fig7" "Figure 7: performance comparison" Reports.fig7_cells
        Reports.fig7;
      cmd_of "fig8" "Figure 8: aborts and wasted cycles" Reports.fig8_cells
        Reports.fig8;
      anchors_cmd;
      scaling_cmd;
      scaling_all_cmd;
      hotspots_cmd;
      profile_cmd;
      fig7avg_cmd;
      export_cmd;
      ablations_cmd;
      lint_cmd;
      policies_cmd;
      hybrid_cmd;
      serve_cmd;
      report_cmd;
      all_cmd;
    ]
  in
  exit (Cmd.eval (Cmd.group info cmds))
