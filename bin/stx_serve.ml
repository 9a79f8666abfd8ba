(* Drive a workload open-loop: synthesize a seeded request stream, run it
   through the simulated machine's injector, and report SLO-style
   latency — what the closed-loop runner cannot measure. *)

open Cmdliner
open Stx_core
open Stx_workloads
module Serve = Stx_serve.Serve
module Arrival = Stx_serve.Arrival
module Keys = Stx_serve.Keys

let run list_services bench arrival_s keys_s pct_get key_range horizon threads
    seed shards shard_by_s jobs mode metrics telemetry telemetry_window check
    htm_policy =
  if list_services then begin
    List.iter
      (fun s ->
        let w = s.Workload.sv_bench in
        Printf.printf "%-10s %-14s %s\n" w.Workload.name w.Workload.source
          w.Workload.description)
      Registry.services;
    exit 0
  end;
  let service =
    match Registry.find_service bench with
    | Some s -> s
    | None ->
      Stx_cli.fail
        ("unknown service: " ^ bench ^ " (one of "
        ^ String.concat ", " Registry.service_names
        ^ ")")
  in
  let arrival = Stx_cli.parsed "arrival" Arrival.of_string arrival_s in
  let keys = Stx_cli.parsed "keys" Keys.of_string keys_s in
  let shard_by = Stx_cli.parsed "shard-by" Serve.shard_by_of_string shard_by_s in
  if pct_get < 0 || pct_get > 100 then
    Stx_cli.fail (Printf.sprintf "bad --pct-get %d: must be in 0..100" pct_get);
  let key_range = Option.map (Stx_cli.positive "key-range") key_range
  and horizon = Stx_cli.positive "horizon" horizon
  and shards = Stx_cli.positive "shards" shards in
  if telemetry_window < 1 then Stx_cli.fail "--telemetry-window must be positive";
  let telemetry_window = Option.map (fun _ -> telemetry_window) telemetry in
  let cfg =
    Serve.config ~mode ~htm_policy ~threads ~seed ~keys ~pct_get ?key_range
      ~horizon ~shards ~shard_by ?telemetry_window ~arrival service
  in
  let report = Serve.run ~jobs cfg in
  print_string (Serve.render cfg report);
  (match (telemetry, report.Serve.telemetry) with
  | Some file, Some series ->
    let meta =
      [
        ("service", bench);
        ("mode", Mode.to_string mode);
        ("arrival", arrival_s);
        ("keys", keys_s);
        ("seed", string_of_int seed);
        ("shards", string_of_int shards);
        ("shard_by", Serve.shard_by_to_string shard_by);
        ("policy", Stx_policy.label htm_policy);
      ]
    in
    Stx_cli.write_telemetry ~meta file series;
    Printf.printf "  telemetry          %d windows -> %s\n"
      (Stx_telemetry.Series.length series)
      file;
    Stx_cli.print_episodes series
  | _ -> ());
  Option.iter (fun file -> Stx_cli.write_metrics file report.Serve.registry) metrics;
  if report.Serve.errors <> [] then exit 1;
  if check then Printf.printf "  check              ok\n%!"

let () =
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List workloads with a serving face.")
  in
  let bench_arg =
    Arg.(
      value
      & opt string "memcached"
      & info [ "bench"; "b" ] ~doc:"Workload to serve (see --list).")
  in
  let arrival_arg =
    Arg.(
      value
      & opt string "poisson:2"
      & info [ "arrival"; "a" ] ~docv:"PROC"
          ~doc:
            "Arrival process: $(b,fixed:RATE), $(b,poisson:RATE), or \
             $(b,bursty:RATE:ON:OFF). Rates are requests per kilocycle of \
             simulated time; bursty windows are in cycles.")
  in
  let keys_arg =
    Arg.(
      value
      & opt string "uniform"
      & info [ "keys"; "k" ] ~docv:"MODEL"
          ~doc:"Key popularity: $(b,uniform) or $(b,zipf:THETA).")
  in
  let pct_get_arg =
    Arg.(
      value
      & opt int 70
      & info [ "pct-get" ] ~doc:"Read share of the request mix, 0..100.")
  in
  let key_range_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "key-range" ]
          ~doc:"Key universe (default: the workload's own).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt int 100_000
      & info [ "horizon" ] ~doc:"Cycles during which requests arrive.")
  in
  let shards_arg =
    Arg.(
      value
      & opt int 2
      & info [ "shards" ]
          ~doc:
            "Independent sub-runs, each at 1/shards of the offered rate. \
             Part of the experiment's identity (changing it changes the \
             result); parallelism comes from --jobs.")
  in
  let shard_by_arg =
    Arg.(
      value
      & opt string "seed"
      & info [ "shard-by" ] ~docv:"WHAT"
          ~doc:
            "$(b,seed): each shard serves the full key range at 1/shards of \
             the offered rate (independent sub-runs). $(b,key): the key \
             space is split into contiguous slices and each request is \
             routed to the shard owning its key, so skewed key popularity \
             loads shards unevenly.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the merged metrics registry (simulator series plus the \
             stx_req_* serving plane) to $(docv) as the versioned JSON \
             snapshot.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Collect a tumbling-window time series per shard (merged in \
             shard order, so --jobs never changes it), including the \
             serving plane — offered/completed per window, queue-depth \
             peaks, windowed sojourn sketches — write it to $(docv) (CSV \
             when the name ends in .csv, JSON-lines otherwise) and print \
             detected episodes (saturation onset, conflict storms, tier \
             shifts).")
  in
  let telemetry_window_arg =
    Arg.(
      value
      & opt int 1000
      & info [ "telemetry-window" ] ~docv:"CYCLES"
          ~doc:"Telemetry window width in simulated cycles.")
  in
  let check_arg =
    Arg.(
      value
      & flag
      & info [ "check" ]
          ~doc:
            "Print a confirmation line when the always-on reconciliation \
             (request lifecycle invariants, the event-stream checker and \
             the metrics-vs-stats cross-check in every shard) passes. \
             Divergences exit non-zero regardless.")
  in
  let term =
    Term.(
      const run $ list_arg $ bench_arg $ arrival_arg $ keys_arg $ pct_get_arg
      $ key_range_arg $ horizon_arg $ Stx_cli.threads $ Stx_cli.seed
      $ shards_arg $ shard_by_arg $ Stx_cli.jobs $ Stx_cli.mode $ metrics_arg
      $ telemetry_arg $ telemetry_window_arg $ check_arg $ Stx_cli.policy)
  in
  let info =
    Cmd.info "stx_serve" ~version:"1.0"
      ~doc:
        "Open-loop serving harness: request-driven load with SLO latency \
         reporting"
  in
  exit (Cmd.eval (Cmd.v info term))
