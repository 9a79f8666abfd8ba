open Stx_serve
module Rng = Stx_util.Rng

(* The serving harness's claims: seeded arrival and key streams are
   exactly reproducible, their distributions have the advertised shape,
   and a sharded open-loop run is one deterministic experiment — the
   jobs knob may only parallelize, never perturb. *)

(* --- key popularity ---------------------------------------------------- *)

let test_zipf_deterministic () =
  let s = Keys.create (Keys.Zipf 0.9) ~range:512 in
  let draw () =
    let rng = Rng.create 42 in
    List.init 200 (fun _ -> Keys.sample s rng)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draw ()) (draw ());
  let other =
    let rng = Rng.create 43 in
    List.init 200 (fun _ -> Keys.sample s rng)
  in
  Alcotest.(check bool) "different seed differs" true (draw () <> other)

let test_zipf_rank_monotone () =
  let range = 8 in
  let s = Keys.create (Keys.Zipf 1.0) ~range in
  let rng = Rng.create 7 in
  let counts = Array.make range 0 in
  for _ = 1 to 20_000 do
    let k = Keys.sample s rng in
    Alcotest.(check bool) "in range" true (k >= 1 && k <= range);
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  for r = 0 to range - 2 do
    if counts.(r) < counts.(r + 1) then
      Alcotest.failf "rank %d (%d draws) colder than rank %d (%d draws)" (r + 1)
        counts.(r) (r + 2)
        counts.(r + 1)
  done

let test_uniform_covers_range () =
  let range = 16 in
  let s = Keys.create Keys.Uniform ~range in
  let rng = Rng.create 5 in
  let seen = Array.make range false in
  for _ = 1 to 2_000 do
    let k = Keys.sample s rng in
    Alcotest.(check bool) "in range" true (k >= 1 && k <= range);
    seen.(k - 1) <- true
  done;
  Alcotest.(check bool) "every key drawn" true (Array.for_all Fun.id seen)

let test_keys_of_string () =
  Alcotest.(check bool) "uniform" true (Keys.of_string "uniform" = Ok Keys.Uniform);
  Alcotest.(check bool) "zipf" true (Keys.of_string "zipf:0.9" = Ok (Keys.Zipf 0.9));
  Alcotest.(check bool) "bad theta" true (Result.is_error (Keys.of_string "zipf:-1"));
  Alcotest.(check bool) "garbage" true (Result.is_error (Keys.of_string "hot"))

(* --- arrival processes ------------------------------------------------- *)

let test_fixed_spacing () =
  let rng = Rng.create 1 in
  let ats =
    Arrival.generate ~rng ~horizon:10_000 (Arrival.Fixed { rate = 2.0 })
  in
  Alcotest.(check int) "count = horizon * rate / 1000" 20 (Array.length ats);
  Array.iteri (fun i at -> Alcotest.(check int) "evenly spaced" (i * 500) at) ats

let test_poisson_mean () =
  let rng = Rng.create 11 in
  let horizon = 500_000 in
  let rate = 2.0 in
  let ats = Arrival.generate ~rng ~horizon (Arrival.Poisson { rate }) in
  let n = Array.length ats in
  let mean = float_of_int horizon /. float_of_int n in
  let expected = 1000.0 /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "empirical mean gap %.1f within 10%% of %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.1 *. expected);
  let sorted = Array.copy ats in
  Array.sort compare sorted;
  Alcotest.(check bool) "non-decreasing" true (ats = sorted)

let test_bursty_windows () =
  let rng = Rng.create 3 in
  let on = 1_000 and off = 3_000 in
  let ats =
    Arrival.generate ~rng ~horizon:100_000
      (Arrival.Bursty { rate = 4.0; on; off })
  in
  Alcotest.(check bool) "some arrivals" true (Array.length ats > 50);
  Array.iter
    (fun at ->
      if at mod (on + off) >= on then
        Alcotest.failf "arrival at %d falls in a silent window" at)
    ats;
  (* arrivals span several on-windows, i.e. the process alternates *)
  let windows =
    Array.fold_left
      (fun acc at ->
        let w = at / (on + off) in
        if List.mem w acc then acc else w :: acc)
      [] ats
  in
  Alcotest.(check bool) "several bursts hit" true (List.length windows > 5)

let test_bursty_average_rate () =
  let rng = Rng.create 9 in
  let horizon = 400_000 in
  let ats =
    Arrival.generate ~rng ~horizon
      (Arrival.Bursty { rate = 2.0; on = 500; off = 1500 })
  in
  (* gating at the boosted in-burst rate keeps the long-run average *)
  let got = float_of_int (Array.length ats) *. 1000.0 /. float_of_int horizon in
  Alcotest.(check bool)
    (Printf.sprintf "average rate %.2f within 15%% of 2.0" got)
    true
    (Float.abs (got -. 2.0) < 0.3)

let test_arrival_extreme_rates_terminate () =
  (* a Fixed rate whose gap truncates to zero used to spin the generator
     forever; the per-cycle cap now bounds every admissible rate *)
  let rng = Rng.create 5 in
  let horizon = 1_000 in
  let ats =
    Arrival.generate ~rng ~horizon
      (Arrival.Fixed { rate = 1000.0 *. float_of_int Arrival.max_per_cycle })
  in
  Alcotest.(check int) "grid saturated: max_per_cycle arrivals every cycle"
    (horizon * Arrival.max_per_cycle)
    (Array.length ats);
  Alcotest.(check bool) "inadmissible rate rejected at parse time" true
    (Result.is_error (Arrival.of_string "fixed:8001"));
  Alcotest.(check bool) "infinite rate rejected" true
    (Result.is_error (Arrival.of_string "poisson:inf"));
  Alcotest.check_raises "generate refuses a hand-built inadmissible rate"
    (Invalid_argument
       "Arrival.generate: rate must be <= 8000 requests/kilocycle (the cycle \
        grid holds at most 8 arrivals per cycle)") (fun () ->
      ignore (Arrival.generate ~rng ~horizon (Arrival.Fixed { rate = 9000.0 })))

let arrival_gen =
  QCheck.Gen.(
    let rate = map (fun r -> Float.max 0.1 r) (float_bound_exclusive 8000.0) in
    oneof
      [
        map (fun rate -> Arrival.Fixed { rate }) rate;
        map (fun rate -> Arrival.Poisson { rate }) rate;
        map2
          (fun rate (on, off) -> Arrival.Bursty { rate; on; off })
          rate
          (pair (int_range 1 2_000) (int_range 0 2_000));
      ])

let arrival_arb =
  QCheck.make arrival_gen ~print:(fun a -> Arrival.to_string a)

let prop_arrival_sorted_and_capped =
  QCheck.Test.make ~name:"arrivals non-decreasing, per-cycle cap respected"
    ~count:100
    QCheck.(pair arrival_arb (int_range 1 20_000))
    (fun (a, horizon) ->
      let rng = Rng.create 17 in
      let ats = Arrival.generate ~rng ~horizon a in
      let ok = ref true in
      let at_cycle = ref 0 and last = ref (-1) in
      Array.iter
        (fun at ->
          if at < !last then ok := false;
          if at = !last then incr at_cycle else at_cycle := 1;
          if !at_cycle > Arrival.max_per_cycle then ok := false;
          last := at)
        ats;
      !ok)

let prop_fixed_count_tracks_rate =
  QCheck.Test.make ~name:"fixed arrival count ~ rate * horizon / 1000"
    ~count:100
    QCheck.(
      pair
        (map (fun r -> Float.max 0.1 r) (float_bound_exclusive 8000.0))
        (int_range 100 20_000))
    (fun (rate, horizon) ->
      let rng = Rng.create 23 in
      let n =
        Array.length (Arrival.generate ~rng ~horizon (Arrival.Fixed { rate }))
      in
      let expected = rate *. float_of_int horizon /. 1000.0 in
      Float.abs (float_of_int n -. expected) <= 2.0 +. (0.01 *. expected))

let test_arrival_of_string () =
  Alcotest.(check bool) "fixed" true
    (Arrival.of_string "fixed:2" = Ok (Arrival.Fixed { rate = 2.0 }));
  Alcotest.(check bool) "poisson" true
    (Arrival.of_string "poisson:0.5" = Ok (Arrival.Poisson { rate = 0.5 }));
  Alcotest.(check bool) "bursty" true
    (Arrival.of_string "bursty:4:100:300"
    = Ok (Arrival.Bursty { rate = 4.0; on = 100; off = 300 }));
  Alcotest.(check bool) "bad rate" true
    (Result.is_error (Arrival.of_string "poisson:-2"));
  Alcotest.(check bool) "bad shape" true
    (Result.is_error (Arrival.of_string "pareto:2"));
  List.iter
    (fun s ->
      match Arrival.of_string s with
      | Ok a -> Alcotest.(check string) "round-trip" s (Arrival.to_string a)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ "fixed:2"; "poisson:0.5"; "bursty:4:100:300" ]

(* --- the serving driver ------------------------------------------------ *)

let serve_cfg ?(shards = 3) ?(threads = 8) ?shard_by () =
  match Stx_workloads.Registry.find_service "memcached" with
  | None -> Alcotest.fail "memcached service missing"
  | Some service ->
    Serve.config ~threads ~seed:13 ~keys:(Keys.Zipf 0.9) ~horizon:20_000
      ~shards ?shard_by
      ~arrival:(Arrival.Poisson { rate = 3.0 })
      service

let test_serve_clean_and_accounted () =
  let cfg = serve_cfg () in
  let report = Serve.run ~jobs:1 cfg in
  Alcotest.(check (list string)) "reconciliation clean" [] report.Serve.errors;
  Alcotest.(check bool) "nonempty" true (report.Serve.requests > 0);
  let reg = report.Serve.registry in
  Alcotest.(check int) "all offered requests completed"
    (Stx_metrics.Registry.counter_value reg "stx_req_offered" [])
    (Stx_metrics.Registry.counter_value reg "stx_req_completed" []);
  (match Serve.sojourn report with
  | None -> Alcotest.fail "no sojourn histogram"
  | Some h ->
    Alcotest.(check int) "one sojourn sample per request" report.Serve.requests
      (Stx_metrics.Hist.count h));
  Alcotest.(check int) "commits cover every request (plus any probes)"
    report.Serve.requests
    (min report.Serve.requests report.Serve.stats.Stx_sim.Stats.commits)

let test_serve_jobs_invariant () =
  let cfg = serve_cfg () in
  let a = Serve.run ~jobs:1 cfg in
  let b = Serve.run ~jobs:4 cfg in
  Alcotest.(check bool) "registries identical" true
    (Stx_metrics.Registry.equal a.Serve.registry b.Serve.registry);
  Alcotest.(check string) "reports identical" (Serve.render cfg a)
    (Serve.render cfg b)

let test_serve_repeat_identical () =
  let cfg = serve_cfg ~shards:2 ~threads:4 () in
  let a = Serve.run ~jobs:2 cfg in
  let b = Serve.run ~jobs:2 cfg in
  Alcotest.(check bool) "registries identical" true
    (Stx_metrics.Registry.equal a.Serve.registry b.Serve.registry)

let test_serve_shards_partition_load () =
  (* the same offered process split over more shards keeps the total
     request count in the same ballpark (thinning, not duplication) *)
  let r1 = Serve.run ~jobs:1 (serve_cfg ~shards:1 ()) in
  let r3 = Serve.run ~jobs:1 (serve_cfg ~shards:3 ()) in
  let lo = r1.Serve.requests * 2 / 3 and hi = r1.Serve.requests * 4 / 3 in
  Alcotest.(check bool)
    (Printf.sprintf "3-shard total %d within [%d, %d]" r3.Serve.requests lo hi)
    true
    (r3.Serve.requests >= lo && r3.Serve.requests <= hi)

let test_serve_key_sharding_partitions_exactly () =
  (* key sharding routes one full-rate stream: the shard totals must sum
     to exactly the single-shard request count, and every shard run must
     still reconcile *)
  let r1 = Serve.run ~jobs:1 (serve_cfg ~shards:1 ~shard_by:Serve.Key ()) in
  let r4 = Serve.run ~jobs:1 (serve_cfg ~shards:4 ~shard_by:Serve.Key ()) in
  Alcotest.(check (list string)) "1-shard clean" [] r1.Serve.errors;
  Alcotest.(check (list string)) "4-shard clean" [] r4.Serve.errors;
  Alcotest.(check int) "disjoint exact partition of the stream"
    r1.Serve.requests r4.Serve.requests;
  Alcotest.(check bool) "nonempty" true (r1.Serve.requests > 0)

let test_serve_key_sharding_deterministic () =
  let cfg = serve_cfg ~shards:2 ~threads:4 ~shard_by:Serve.Key () in
  let a = Serve.run ~jobs:1 cfg in
  let b = Serve.run ~jobs:2 cfg in
  Alcotest.(check bool) "jobs-invariant" true
    (Stx_metrics.Registry.equal a.Serve.registry b.Serve.registry);
  Alcotest.(check string) "reports identical" (Serve.render cfg a)
    (Serve.render cfg b)

let test_serve_shard_by_strings () =
  Alcotest.(check bool) "seed" true
    (Serve.shard_by_of_string "seed" = Ok Serve.Seed);
  Alcotest.(check bool) "key" true
    (Serve.shard_by_of_string "key" = Ok Serve.Key);
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Serve.shard_by_of_string "hash"));
  Alcotest.(check string) "round-trip" "key"
    (Serve.shard_by_to_string Serve.Key)

(* The occupancy is a busy fraction of every core of every shard: even a
   saturated two-shard run, whose merged stats keep the per-shard core
   count, stays within [0, 1]. *)
let test_serve_occupancy_counts_shards () =
  match Stx_workloads.Registry.find_service "memcached" with
  | None -> Alcotest.fail "memcached service missing"
  | Some service ->
    let threads = 16 and shards = 2 in
    let cfg =
      Serve.config ~mode:Stx_core.Mode.Baseline ~threads ~seed:7 ~keys:Keys.Uniform
        ~horizon:20_000 ~shards
        ~arrival:(Arrival.Fixed { rate = 14. })
        service
    in
    let r = Serve.run ~jobs:1 cfg in
    Alcotest.(check bool) "saturated" true r.Serve.saturated;
    let busy =
      Stx_metrics.Registry.fold
        (fun name _ v acc ->
          match v with
          | Stx_metrics.Registry.Counter c when name = "stx_req_busy_cycles" -> acc + c
          | _ -> acc)
        r.Serve.registry 0
    in
    let occ = Serve.occupancy r in
    Alcotest.(check bool)
      (Printf.sprintf "occupancy %.3f within [0, 1]" occ)
      true
      (occ >= 0. && occ <= 1.);
    Alcotest.(check (float 1e-12)) "busy cycles / (threads x shards x makespan)"
      (float_of_int busy /. float_of_int (threads * shards * r.Serve.makespan))
      occ

(* One served run's allocation per simulated instruction, read after a
   warm-up run. The collector and the request plane write through
   registry handles resolved once per shard, so what is left is the
   machine, the injection path and per-request bookkeeping (4.76 words);
   rebuilding a label key on every write costs about 19 more. *)
let test_serve_minor_words_per_inst () =
  match Stx_workloads.Registry.find_service "memcached" with
  | None -> Alcotest.fail "memcached service missing"
  | Some service ->
    let cfg =
      Serve.config ~threads:16 ~seed:7 ~keys:Keys.Uniform ~horizon:100_000 ~shards:2
        ~arrival:(Arrival.Fixed { rate = 14. })
        service
    in
    ignore (Serve.run ~jobs:1 cfg);
    let w0 = Gc.minor_words () in
    let r = Serve.run ~jobs:1 cfg in
    let words = Gc.minor_words () -. w0 in
    let per_inst = words /. float_of_int (max 1 r.Serve.stats.Stx_sim.Stats.insts) in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f minor words/instruction, ceiling 8" per_inst)
      true (per_inst <= 8.)

(* --- the request events in the trace codec ----------------------------- *)

let test_trace_roundtrip_req_events () =
  let module Machine = Stx_sim.Machine in
  let module Trace = Stx_trace.Trace in
  let tr = Trace.create ~threads:2 () in
  let feed time ev = Trace.handler tr ~time ev in
  feed 5 (Machine.Req_dispatch { tid = 0; req = 0; ab = 1 });
  feed 6 (Machine.Tx_begin { tid = 0; ab = 1; attempt = 0; probe = false });
  feed 30
    (Machine.Tx_commit
       {
         tid = 0;
         ab = 1;
         cycles = 24;
         irrevocable = false;
         rset = 2;
         wset = 1;
         probe = false;
       });
  feed 30 (Machine.Req_done { tid = 0; req = 0; ab = 1 });
  let file = Filename.temp_file "stx_serve_trace" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file
        (Trace.write_events ~meta:[ ("kind", "serve-test") ] tr);
      let tr', meta = Trace.read_events ~file in
      Alcotest.(check bool) "meta preserved" true
        (List.mem_assoc "kind" meta && List.assoc "kind" meta = "serve-test");
      Alcotest.(check bool) "events preserved" true
        (Trace.events tr = Trace.events tr'))

(* --- memcached parameterization ---------------------------------------- *)

let run_bench w =
  let spec = Stx_workloads.Workload.spec ~instrument:true w in
  Stx_sim.Machine.run ~seed:3
    ~cfg:(Stx_machine.Config.with_cores 4 Stx_machine.Config.default)
    ~mode:Stx_core.Mode.Staggered_hw spec

let test_memcached_default_params_unchanged () =
  let module M = Stx_workloads.W_memcached in
  let a = run_bench M.bench in
  let b = run_bench (M.bench_with M.default_params) in
  Alcotest.(check int) "commits" a.Stx_sim.Stats.commits b.Stx_sim.Stats.commits;
  Alcotest.(check int) "aborts" a.Stx_sim.Stats.aborts b.Stx_sim.Stats.aborts;
  Alcotest.(check int) "makespan" a.Stx_sim.Stats.total_cycles
    b.Stx_sim.Stats.total_cycles

let test_memcached_params_take_effect () =
  let module M = Stx_workloads.W_memcached in
  let small =
    run_bench (M.bench_with { M.default_params with M.total_ops = 256 })
  in
  let dflt = run_bench M.bench in
  Alcotest.(check bool)
    (Printf.sprintf "256-op run commits less (%d < %d)"
       small.Stx_sim.Stats.commits dflt.Stx_sim.Stats.commits)
    true
    (small.Stx_sim.Stats.commits < dflt.Stx_sim.Stats.commits)

let suite =
  [
    Alcotest.test_case "zipf: deterministic under a seed" `Quick
      test_zipf_deterministic;
    Alcotest.test_case "zipf: frequency monotone in rank" `Quick
      test_zipf_rank_monotone;
    Alcotest.test_case "uniform keys cover the range" `Quick
      test_uniform_covers_range;
    Alcotest.test_case "key model parsing" `Quick test_keys_of_string;
    Alcotest.test_case "fixed arrivals evenly spaced" `Quick test_fixed_spacing;
    Alcotest.test_case "poisson inter-arrival mean" `Quick test_poisson_mean;
    Alcotest.test_case "bursty arrivals only in on-windows" `Quick
      test_bursty_windows;
    Alcotest.test_case "bursty long-run average rate" `Quick
      test_bursty_average_rate;
    Alcotest.test_case "arrival parsing and round-trip" `Quick
      test_arrival_of_string;
    Alcotest.test_case "extreme arrival rates terminate" `Quick
      test_arrival_extreme_rates_terminate;
    QCheck_alcotest.to_alcotest prop_arrival_sorted_and_capped;
    QCheck_alcotest.to_alcotest prop_fixed_count_tracks_rate;
    Alcotest.test_case "serve: clean reconciliation, full accounting" `Quick
      test_serve_clean_and_accounted;
    Alcotest.test_case "serve: jobs count never changes the result" `Quick
      test_serve_jobs_invariant;
    Alcotest.test_case "serve: repeat runs identical" `Quick
      test_serve_repeat_identical;
    Alcotest.test_case "serve: shards partition the offered load" `Quick
      test_serve_shards_partition_load;
    Alcotest.test_case "key sharding partitions the stream exactly" `Quick
      test_serve_key_sharding_partitions_exactly;
    Alcotest.test_case "key sharding deterministic across jobs" `Quick
      test_serve_key_sharding_deterministic;
    Alcotest.test_case "serve: under 8 minor words per instruction" `Quick
      test_serve_minor_words_per_inst;
    Alcotest.test_case "serve: occupancy counts every shard's cores" `Quick
      test_serve_occupancy_counts_shards;
    Alcotest.test_case "shard-by parse/print" `Quick
      test_serve_shard_by_strings;
    Alcotest.test_case "trace codec round-trips request events" `Quick
      test_trace_roundtrip_req_events;
    Alcotest.test_case "memcached: default params reproduce the bench" `Quick
      test_memcached_default_params_unchanged;
    Alcotest.test_case "memcached: params take effect" `Quick
      test_memcached_params_take_effect;
  ]
