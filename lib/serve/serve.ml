open Stx_core
open Stx_machine
open Stx_sim
open Stx_workloads
module Rng = Stx_util.Rng
module Hist = Stx_metrics.Hist
module Registry = Stx_metrics.Registry
module Collect = Stx_metrics.Collect

(* how the request stream is split across shards: [Seed] thins one
   arrival process into [shards] independent full-range sub-streams
   (variance reduction); [Key] partitions the key space into contiguous
   slices and routes every request to its owner, the way a sharded store
   actually scales out — under skewed keys the hot shard saturates first,
   which is the phenomenon the wide-core sweep is after *)
type shard_by = Seed | Key

let shard_by_to_string = function Seed -> "seed" | Key -> "key"

let shard_by_of_string = function
  | "seed" -> Ok Seed
  | "key" -> Ok Key
  | s -> Error ("expected seed or key, got " ^ s)

type config = {
  service : Workload.service;
  mode : Mode.t;
  htm_policy : Stx_policy.t;
  threads : int;
  seed : int;
  arrival : Arrival.t;
  keys : Keys.t;
  pct_get : int;
  key_range : int option;
  horizon : int;
  shards : int;
  shard_by : shard_by;
  telemetry_window : int option;
}

let config ?(mode = Mode.Staggered_hw) ?(htm_policy = Stx_policy.default)
    ?(threads = 16) ?(seed = 1) ?(keys = Keys.Uniform) ?(pct_get = 70)
    ?key_range ?(horizon = 100_000) ?(shards = 2) ?(shard_by = Seed)
    ?telemetry_window ~arrival service =
  if threads < 1 then invalid_arg "Serve.config: threads must be positive";
  if shards < 1 then invalid_arg "Serve.config: shards must be positive";
  if horizon < 1 then invalid_arg "Serve.config: horizon must be positive";
  if pct_get < 0 || pct_get > 100 then
    invalid_arg "Serve.config: pct_get must be in 0..100";
  (match telemetry_window with
  | Some w when w < 1 ->
    invalid_arg "Serve.config: telemetry window must be positive"
  | _ -> ());
  {
    service;
    mode;
    htm_policy;
    threads;
    seed;
    arrival;
    keys;
    pct_get;
    key_range;
    horizon;
    shards;
    shard_by;
    telemetry_window;
  }

type report = {
  requests : int;
  makespan : int;
  offered : float;
  achieved : float;
  saturated : bool;
  stats : Stats.t;
  registry : Registry.t;
  telemetry : Stx_telemetry.Series.t option;
  errors : string list;
}

(* one synthesized request and its lifecycle timestamps *)
type req = {
  at : int;  (* enqueue: the arrival timestamp *)
  write : bool;
  key : int;
  mutable dispatched : int;  (* first-dispatch time, -1 until then *)
  mutable completed : int;  (* commit time of its transaction *)
  mutable core : int;
}

(* contiguous range partition of the 1-based key space *)
let shard_of_key ~shards ~range key = (key - 1) * shards / range

(* number of elements of the sorted [ats] that are <= [now] *)
let arrived_by ats now =
  let lo = ref 0 and hi = ref (Array.length ats) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ats.(mid) <= now then lo := mid + 1 else hi := mid
  done;
  !lo

let run_shard cfg ~shard ~shard_seed =
  (* independent streams per concern, so the arrival schedule, the
     get/set mix and the key draws never perturb one another *)
  let master = Rng.create shard_seed in
  let arr_rng = Rng.split master in
  let mix_rng = Rng.split master in
  let key_rng = Rng.split master in
  (* in Key mode every shard runs from the same master seed; offset the
     machine seed so the shards' simulators are still de-correlated *)
  let sim_seed =
    match cfg.shard_by with
    | Seed -> Rng.next master
    | Key -> Rng.next master + shard
  in
  let key_range =
    Option.value cfg.key_range ~default:cfg.service.Workload.sv_key_range
  in
  let sampler = Keys.create cfg.keys ~range:key_range in
  let mk_req at =
    {
      at;
      write = Rng.int mix_rng 100 >= cfg.pct_get;
      key = Keys.sample sampler key_rng;
      dispatched = -1;
      completed = -1;
      core = -1;
    }
  in
  let reqs =
    match cfg.shard_by with
    | Seed ->
      let arrival =
        Arrival.scale cfg.arrival (1.0 /. float_of_int cfg.shards)
      in
      Array.map mk_req (Arrival.generate ~rng:arr_rng ~horizon:cfg.horizon arrival)
    | Key ->
      (* every shard regenerates the same full-rate stream — [run] hands
         each the same seed — and keeps the key slice it owns, so the
         union over shards is exactly the offered stream, disjointly
         routed *)
      let all =
        Array.map mk_req
          (Arrival.generate ~rng:arr_rng ~horizon:cfg.horizon cfg.arrival)
      in
      Array.of_list
        (List.filter
           (fun r ->
             shard_of_key ~shards:cfg.shards ~range:key_range r.key = shard)
           (Array.to_list all))
  in
  let ats = Array.map (fun r -> r.at) reqs in
  let n = Array.length reqs in
  let spec, synth =
    Workload.service_spec ~instrument:(Mode.uses_alps cfg.mode) ~key_range
      cfg.service
  in
  (* the serving plane's per-request series, resolved once; busy cycles
     get one handle per core *)
  let sreg = Registry.create () in
  let queue_depth = Registry.hist sreg "stx_req_queue_depth" [] in
  let sojourn = Registry.hist sreg "stx_req_sojourn_cycles" [] in
  let wait = Registry.hist sreg "stx_req_wait_cycles" [] in
  let service = Registry.hist sreg "stx_req_service_cycles" [] in
  let busy =
    Array.init cfg.threads (fun core ->
        Registry.counter sreg "stx_req_busy_cycles" [ ("core", string_of_int core) ])
  in
  let telem =
    Option.map
      (fun w -> Stx_telemetry.Collect.create ~window:w ~threads:cfg.threads ())
      cfg.telemetry_window
  in
  (* the arrival schedule is fixed up front, so the offered-per-window
     counts can be folded in before the machine runs *)
  Option.iter
    (fun tc ->
      Array.iter (fun at -> Stx_telemetry.Collect.note_offered tc ~at) ats)
    telem;
  let max_depth = ref 0 in
  let next = ref 0 in
  let injector ~tid ~now =
    if !next >= n then Machine.Drained
    else
      let r = reqs.(!next) in
      if r.at > now then Machine.Idle_until r.at
      else begin
        let req = !next in
        let depth = arrived_by ats now - req in
        if depth > !max_depth then max_depth := depth;
        Registry.record queue_depth depth;
        (match telem with
        | Some tc -> Stx_telemetry.Collect.note_queue_depth tc ~at:now depth
        | None -> ());
        let mk = Option.get !synth in
        let { Workload.rq_ab; rq_args } = mk ~write:r.write ~key:r.key in
        r.dispatched <- now;
        r.core <- tid;
        incr next;
        Machine.Inject { req; ab = rq_ab; args = rq_args }
      end
  in
  let collector = Collect.create ~policy:cfg.htm_policy () in
  let checker = Stx_trace.Check.create ~threads:cfg.threads in
  let dispatch_events = ref 0 and done_events = ref 0 in
  let on_event ~time ev =
    Collect.handler collector ~time ev;
    Stx_trace.Check.handler checker ~time ev;
    (match telem with
    | Some tc -> Stx_telemetry.Collect.handler tc ~time ev
    | None -> ());
    match ev with
    | Machine.Req_dispatch _ -> incr dispatch_events
    | Machine.Req_done { req; _ } ->
      reqs.(req).completed <- time;
      incr done_events
    | _ -> ()
  in
  let mcfg = Config.with_cores cfg.threads Config.default in
  let stats =
    Machine.run ~seed:sim_seed ~htm_policy:cfg.htm_policy ~cfg:mcfg
      ~mode:cfg.mode ~on_event ~injector spec
  in
  (* fold the lifecycle into the serving-plane metrics *)
  Array.iter
    (fun r ->
      if r.completed >= 0 then begin
        (match telem with
        | Some tc ->
          Stx_telemetry.Collect.note_sojourn tc ~at:r.completed (r.completed - r.at)
        | None -> ());
        Registry.record sojourn (r.completed - r.at);
        Registry.record wait (r.dispatched - r.at);
        Registry.record service (r.completed - r.dispatched);
        Registry.add busy.(r.core) (r.completed - r.dispatched)
      end)
    reqs;
  if n > 0 then Registry.inc sreg ~by:n "stx_req_offered" [];
  let completed =
    Array.fold_left (fun a r -> if r.completed >= 0 then a + 1 else a) 0 reqs
  in
  if completed > 0 then Registry.inc sreg ~by:completed "stx_req_completed" [];
  Registry.set_gauge sreg "stx_req_queue_depth_max" [] !max_depth;
  (* reconciliation: the serving plane's own invariants, then the event
     stream and the metrics registry against the simulator's counters *)
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if !dispatch_events <> n then
    err "shard %d: %d dispatch events for %d requests" shard !dispatch_events n;
  if !done_events <> n then
    err "shard %d: %d done events for %d requests" shard !done_events n;
  Array.iteri
    (fun i r ->
      if r.completed < 0 then err "shard %d: request %d never completed" shard i
      else if not (r.at <= r.dispatched && r.dispatched <= r.completed) then
        err "shard %d: request %d timestamps out of order (%d/%d/%d)" shard i
          r.at r.dispatched r.completed)
    reqs;
  let verdict = function
    | Ok () -> ()
    | Error es -> List.iter (fun e -> err "shard %d: %s" shard e) es
  in
  verdict (Stx_trace.Check.finish checker stats);
  verdict (Collect.check (Collect.registry collector) stats);
  let registry = Registry.merge (Collect.export collector stats) sreg in
  let series =
    Option.map
      (fun tc -> Stx_telemetry.Collect.finalize ~horizon:cfg.horizon tc)
      telem
  in
  (stats, registry, n, series, List.rev !errors)

let run ?jobs cfg =
  let seeds =
    match cfg.shard_by with
    | Seed ->
      let r = Rng.create cfg.seed in
      Array.init cfg.shards (fun _ -> Rng.next r)
    (* identical seeds: each shard re-derives the same request stream and
       keeps only its key slice *)
    | Key -> Array.make cfg.shards cfg.seed
  in
  let thunks =
    Array.init cfg.shards (fun i () ->
        run_shard cfg ~shard:i ~shard_seed:seeds.(i))
  in
  let outcomes = Stx_runner.Pool.map ?jobs thunks in
  let shards =
    Array.mapi
      (fun i -> function
        | Stx_runner.Pool.Done r -> r
        | Stx_runner.Pool.Failed msg ->
          failwith (Printf.sprintf "serve shard %d failed: %s" i msg))
      outcomes
  in
  let stats, registry, requests, telemetry, errors =
    Array.fold_left
      (fun (sa, ra, na, ta, ea) (s, r, n, t, e) ->
        match sa with
        | None -> (Some s, r, n, t, e)
        | Some sa ->
          let ta =
            match (ta, t) with
            | Some a, Some b -> Some (Stx_telemetry.Series.merge a b)
            | _ -> None
          in
          (Some (Stats.merge sa s), Registry.merge ra r, na + n, ta, ea @ e))
      (None, Registry.create (), 0, None, [])
      shards
  in
  let stats = Option.get stats in
  let makespan = stats.Stats.total_cycles in
  let per_kcycle count cycles =
    if cycles <= 0 then 0.0 else float_of_int count *. 1000.0 /. float_of_int cycles
  in
  let offered = per_kcycle requests cfg.horizon in
  let achieved = per_kcycle requests makespan in
  let saturated = requests > 0 && achieved < 0.9 *. offered in
  {
    requests;
    makespan;
    offered;
    achieved;
    saturated;
    stats;
    registry;
    telemetry;
    errors;
  }

let sojourn report = Registry.histogram report.registry "stx_req_sojourn_cycles" []

let occupancy report =
  if report.makespan <= 0 then 0.0
  else
    let busy =
      Registry.fold
        (fun name _ v acc ->
          match v with
          | Registry.Counter c when name = "stx_req_busy_cycles" -> acc + c
          | _ -> acc)
        report.registry 0
    in
    let denom = report.stats.Stats.threads * report.makespan in
    float_of_int busy /. float_of_int (max 1 denom)

let render cfg report =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%s / %s / %d threads x %d %s-shards / %s keys %s (%d%% get)\n"
    cfg.service.Workload.sv_bench.Workload.name
    (Mode.to_string cfg.mode) cfg.threads cfg.shards
    (shard_by_to_string cfg.shard_by)
    (Arrival.to_string cfg.arrival) (Keys.to_string cfg.keys) cfg.pct_get;
  pf "  requests           %d over %d cycles\n" report.requests cfg.horizon;
  pf "  offered            %.3f req/kcycle\n" report.offered;
  pf "  achieved           %.3f req/kcycle (makespan %d)%s\n" report.achieved
    report.makespan
    (if report.saturated then "  SATURATED" else "");
  let line name key =
    match Registry.histogram report.registry key [] with
    | None -> ()
    | Some h ->
      pf "  %-18s p50 %-7d p95 %-7d p99 %-7d p99.9 %-7d max %d\n" name
        (Hist.p50 h)
        (Hist.quantile h 0.95)
        (Hist.p99 h)
        (Hist.quantile h 0.999)
        (Hist.max_value h)
  in
  line "sojourn cycles" "stx_req_sojourn_cycles";
  line "wait cycles" "stx_req_wait_cycles";
  line "service cycles" "stx_req_service_cycles";
  pf "  queue depth max    %d\n"
    (Registry.gauge_value report.registry "stx_req_queue_depth_max" []);
  pf "  core occupancy     %.1f%%\n" (100.0 *. occupancy report);
  pf "  commits/aborts     %d/%d (irrevocable %d)\n" report.stats.Stats.commits
    report.stats.Stats.aborts report.stats.Stats.irrevocable_entries;
  (match report.errors with
  | [] -> pf "  reconciliation     ok\n"
  | es ->
    pf "  reconciliation     FAILED:\n";
    List.iter (fun e -> pf "    %s\n" e) es);
  Buffer.contents b
