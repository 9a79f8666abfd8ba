open Stx_util
open Stx_core
open Stx_sim
open Stx_workloads
module J = Stx_metrics.Json
module Hist = Stx_metrics.Hist
module Collect = Stx_metrics.Collect

type entry = {
  workload : string;
  mode : string;
  throughput : float;
  abort_rate : float;
  p99_latency : int;
  prefix_share : float;
  suffix_share : float;
}

type sim_entry = {
  sim_workload : string;
  sim_events : int;
  sim_events_per_sec : float;
  sim_minor_words_per_event : float;
}

type t = {
  schema_version : int;
  seed : int;
  scale : float;
  threads : int;
  entries : entry list;
  sims : sim_entry list;
}

(* v2 added the simulator-core throughput series ([sims]). *)
let schema_version = 2

let suite_modes =
  [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ]

let suite_cells ctx =
  List.concat_map
    (fun w -> List.map (fun m -> (w, m, Exp.threads ctx)) suite_modes)
    Registry.all

let entry_of_run ~workload ~mode (r : Stx_metrics.Run.t) =
  let s = r.Stx_metrics.Run.stats in
  let reg = r.Stx_metrics.Run.metrics in
  let throughput =
    1_000_000. *. Stat.ratio s.Stats.commits (max 1 s.Stats.total_cycles)
  in
  let attempts = s.Stats.commits + s.Stats.aborts in
  let abort_rate = Stat.ratio s.Stats.aborts (max 1 attempts) in
  let p99_latency =
    Hist.p99 (Collect.histogram reg "stx_tx_latency_cycles" [ ("outcome", "commit") ])
  in
  let phase p = Collect.phase_total reg p in
  let prefix = phase Collect.Prefix in
  let suffix = phase Collect.Suffix in
  let committed =
    prefix + phase Collect.Lock_wait + suffix + phase Collect.Irrevocable
  in
  {
    workload;
    mode = Mode.to_string mode;
    throughput;
    abort_rate;
    p99_latency;
    prefix_share = Stat.ratio prefix (max 1 committed);
    suffix_share = Stat.ratio suffix (max 1 committed);
  }

(* ------------------------------------------------------------------ *)
(* simulator-core throughput: wall-clock events/sec and GC pressure.

   One "event" is one executed simulated instruction ([Stats.insts]) — the
   unit every workload shares regardless of how its cycles are spent. The
   measurement deliberately bypasses the result store: the point is the
   wall-clock cost of the simulator itself, so memoisation would make it a
   no-op. A warmup run precedes the timed run so the timed one sees a warm
   code path; the minor-allocation rate divides the [Gc.minor_words] delta
   of the timed run by its event count, which amortises the machine's
   one-time pool construction over the whole run. *)

let sim_cores = 16
let sim_scale = 0.2

let measure_sim ?(cores = sim_cores) ?(scale = sim_scale) ?(seed = 1)
    (w : Workload.t) =
  (* compile the workload once, outside the measured window: the gate is
     about the simulator's steady state, not the compiler's allocation *)
  let spec = Workload.spec ~instrument:false ~scale w in
  let cfg = Stx_machine.Config.with_cores cores Stx_machine.Config.default in
  let run () = Machine.run ~seed ~cfg ~mode:Mode.Baseline spec in
  ignore (run ());
  (* short workloads finish in a few milliseconds, where a single timed
     run is scheduler noise: repeat until enough wall time accumulates
     and report the best rep.  The allocation figure comes from the
     first rep alone — per-rep allocation is deterministic, and the
     delta includes machine construction, amortised over the run *)
  Gc.full_major ();
  let min_elapsed = 0.2 in
  let rec reps total_dt best_dt first_dm events =
    let m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let stats = run () in
    let dt = Unix.gettimeofday () -. t0 in
    let dm = Gc.minor_words () -. m0 in
    let total_dt = total_dt +. dt in
    let best_dt = if best_dt <= 0. || dt < best_dt then dt else best_dt in
    let first_dm = if first_dm < 0. then dm else first_dm in
    if total_dt < min_elapsed then reps total_dt best_dt first_dm events
    else (best_dt, first_dm, stats.Stats.insts)
  in
  let best_dt, dm, events = reps 0. 0. (-1.) 0 in
  {
    sim_workload = w.Workload.name;
    sim_events = events;
    sim_events_per_sec =
      float_of_int events /. (if best_dt <= 0. then 1e-9 else best_dt);
    sim_minor_words_per_event = dm /. float_of_int (max 1 events);
  }

let sim_suite ?cores ?scale ?seed () =
  List.map (fun w -> measure_sim ?cores ?scale ?seed w) Registry.all

let render_sim ?(cores = sim_cores) entries =
  let tbl =
    Table.create [ "Benchmark"; "events"; "events/sec"; "minor words/event" ]
  in
  List.iter
    (fun e ->
      Table.add_row tbl
        [
          e.sim_workload;
          string_of_int e.sim_events;
          Table.fmt_f ~dec:0 e.sim_events_per_sec;
          Table.fmt_f ~dec:2 e.sim_minor_words_per_event;
        ])
    entries;
  Printf.sprintf
    "Simulator core throughput (%d cores, Baseline mode): wall-clock\n\
     simulated instructions per second and minor-heap words allocated per\n\
     instruction.\n"
    cores
  ^ Table.render tbl

let suite ctx =
  let entries =
    List.concat_map
      (fun (w : Workload.t) ->
        List.map
          (fun m ->
            entry_of_run ~workload:w.Workload.name ~mode:m
              (Exp.measure ctx w m))
          suite_modes)
      Registry.all
    |> List.sort (fun a b ->
           compare (a.workload, a.mode) (b.workload, b.mode))
  in
  {
    schema_version;
    seed = Exp.seed ctx;
    scale = Exp.scale ctx;
    threads = Exp.threads ctx;
    entries;
    (* the sim series is measured at its own fixed point (16 cores,
       scale 0.2, seed 1) regardless of the context: wall-clock rates
       only compare within one configuration, and pinning it keeps the
       committed baseline comparable across ctx flags *)
    sims = sim_suite ();
  }

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let entry_to_json e =
  J.Obj
    [
      ("workload", J.Str e.workload);
      ("mode", J.Str e.mode);
      ("throughput", J.Float e.throughput);
      ("abort_rate", J.Float e.abort_rate);
      ("p99_latency_cycles", J.Int e.p99_latency);
      ("prefix_share", J.Float e.prefix_share);
      ("suffix_share", J.Float e.suffix_share);
    ]

(* the persisted allocation series is per 1000 events: per-event figures
   for a zero-allocation core are fractions like 0.004, which round badly
   in fixed-precision renderings of the JSON *)
let sim_to_json e =
  J.Obj
    [
      ("workload", J.Str e.sim_workload);
      ("events", J.Int e.sim_events);
      ("sim_events_per_sec", J.Float e.sim_events_per_sec);
      ("minor_words_per_1k_events", J.Float (1000. *. e.sim_minor_words_per_event));
    ]

let to_json t =
  J.Obj
    [
      ("schema", J.Str "stx-bench");
      ("version", J.Int t.schema_version);
      ("seed", J.Int t.seed);
      ("scale", J.Float t.scale);
      ("threads", J.Int t.threads);
      ("entries", J.List (List.map entry_to_json t.entries));
      ("sims", J.List (List.map sim_to_json t.sims));
    ]

let to_json_string t = J.to_string (to_json t)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let req what o = match o with Some v -> Ok v | None -> Error ("bench snapshot: missing or ill-typed " ^ what)

let entry_of_json j =
  let* workload = req "workload" (Option.bind (J.member "workload" j) J.as_string) in
  let* mode = req "mode" (Option.bind (J.member "mode" j) J.as_string) in
  let* throughput = req "throughput" (Option.bind (J.member "throughput" j) J.as_float) in
  let* abort_rate = req "abort_rate" (Option.bind (J.member "abort_rate" j) J.as_float) in
  let* p99_latency =
    req "p99_latency_cycles" (Option.bind (J.member "p99_latency_cycles" j) J.as_int)
  in
  let* prefix_share =
    req "prefix_share" (Option.bind (J.member "prefix_share" j) J.as_float)
  in
  let* suffix_share =
    req "suffix_share" (Option.bind (J.member "suffix_share" j) J.as_float)
  in
  Ok { workload; mode; throughput; abort_rate; p99_latency; prefix_share; suffix_share }

let sim_of_json j =
  let* sim_workload = req "workload" (Option.bind (J.member "workload" j) J.as_string) in
  let* sim_events = req "events" (Option.bind (J.member "events" j) J.as_int) in
  let* sim_events_per_sec =
    req "sim_events_per_sec"
      (Option.bind (J.member "sim_events_per_sec" j) J.as_float)
  in
  let* per_1k =
    req "minor_words_per_1k_events"
      (Option.bind (J.member "minor_words_per_1k_events" j) J.as_float)
  in
  Ok
    {
      sim_workload;
      sim_events;
      sim_events_per_sec;
      sim_minor_words_per_event = per_1k /. 1000.;
    }

let of_json j =
  let* schema = req "schema" (Option.bind (J.member "schema" j) J.as_string) in
  let* () = if schema = "stx-bench" then Ok () else Error ("bench snapshot: schema is " ^ schema ^ ", wanted stx-bench") in
  let* version = req "version" (Option.bind (J.member "version" j) J.as_int) in
  let* () =
    if version = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "bench snapshot: version %d, this build reads %d"
           version schema_version)
  in
  let* seed = req "seed" (Option.bind (J.member "seed" j) J.as_int) in
  let* scale = req "scale" (Option.bind (J.member "scale" j) J.as_float) in
  let* threads = req "threads" (Option.bind (J.member "threads" j) J.as_int) in
  let* entries = req "entries" (Option.bind (J.member "entries" j) J.as_list) in
  let* entries =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* e = entry_of_json e in
        Ok (e :: acc))
      (Ok []) entries
  in
  let* sims = req "sims" (Option.bind (J.member "sims" j) J.as_list) in
  let* sims =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* e = sim_of_json e in
        Ok (e :: acc))
      (Ok []) sims
  in
  Ok
    {
      schema_version = version;
      seed;
      scale;
      threads;
      entries = List.rev entries;
      sims = List.rev sims;
    }

let of_json_string s =
  match J.parse s with Ok j -> of_json j | Error e -> Error ("bench snapshot: " ^ e)

let write t ~file =
  let oc = open_out file in
  output_string oc (to_json_string t);
  output_char oc '\n';
  close_out oc

let read ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | s -> of_json_string s
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* rendering *)

let render t =
  let tbl =
    Table.create
      [
        "Benchmark"; "Mode"; "thr (c/Mcyc)"; "abort rate"; "p99 lat";
        "prefix%"; "suffix%";
      ]
  in
  List.iter
    (fun e ->
      Table.add_row tbl
        [
          e.workload;
          e.mode;
          Table.fmt_f ~dec:1 e.throughput;
          Table.fmt_pct ~dec:1 (100. *. e.abort_rate);
          string_of_int e.p99_latency;
          Table.fmt_pct ~dec:1 (100. *. e.prefix_share);
          Table.fmt_pct ~dec:1 (100. *. e.suffix_share);
        ])
    t.entries;
  Printf.sprintf
    "Bench suite (seed %d, scale %g, %d threads): throughput in commits per\n\
     million simulated cycles; prefix/suffix as shares of committed tx cycles.\n"
    t.seed t.scale t.threads
  ^ Table.render tbl

(* ------------------------------------------------------------------ *)
(* regression gating *)

type verdict = Improved | Neutral | Regressed | Added | Removed

type comparison = {
  c_workload : string;
  c_mode : string;
  c_old : entry option;
  c_new : entry option;
  ratio : float;
  p99_ratio : float;
  abort_ratio : float;
  verdict : verdict;
}

let verdict_label = function
  | Improved -> "improved"
  | Neutral -> "ok"
  | Regressed -> "REGRESSED"
  | Added -> "added"
  | Removed -> "removed"

(* One gated leg: new/old and its verdict, [higher] naming the better
   direction. A leg that moves off zero has an infinite ratio. *)
let leg ~threshold ~higher o n =
  if o = 0. && n = 0. then (1., Neutral)
  else
    let r = n /. o in
    let better = if higher then r > 1. +. threshold else r < 1. -. threshold in
    let worse = if higher then r < 1. -. threshold else r > 1. +. threshold in
    (r, if worse then Regressed else if better then Improved else Neutral)

let compare_runs ?(threshold = 0.2) ~baseline fresh =
  if not (threshold > 0. && threshold < 1.) then
    invalid_arg "Bench.compare_runs: threshold must be in (0, 1)";
  let key (e : entry) = (e.workload, e.mode) in
  let index entries =
    let h = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace h (key e) e) entries;
    h
  in
  let old_by = index baseline.entries and new_by = index fresh.entries in
  let keys =
    List.sort_uniq compare
      (List.map key baseline.entries @ List.map key fresh.entries)
  in
  List.map
    (fun ((w, m) as k) ->
      let c_old = Hashtbl.find_opt old_by k in
      let c_new = Hashtbl.find_opt new_by k in
      let cell ?(ratio = nan) ?(p99_ratio = nan) ?(abort_ratio = nan) verdict =
        { c_workload = w; c_mode = m; c_old; c_new; ratio; p99_ratio; abort_ratio; verdict }
      in
      match (c_old, c_new) with
      | None, Some _ -> cell Added
      | Some _, None -> cell Removed
      | None, None -> assert false
      | Some o, Some n ->
        let ratio, tv = leg ~threshold ~higher:true o.throughput n.throughput in
        let p99_ratio, pv =
          leg ~threshold ~higher:false (float o.p99_latency) (float n.p99_latency)
        in
        let abort_ratio, av = leg ~threshold ~higher:false o.abort_rate n.abort_rate in
        let legs = [ tv; pv; av ] in
        cell ~ratio ~p99_ratio ~abort_ratio
          (if List.mem Regressed legs then Regressed
           else if List.mem Improved legs then Improved
           else Neutral))
    keys

let regressions = List.filter (fun c -> c.verdict = Regressed)

let render_compare comparisons =
  let tbl =
    Table.create
      [
        "Benchmark"; "Mode"; "baseline thr"; "new thr"; "ratio"; "p99 ratio";
        "abort ratio"; "verdict";
      ]
  in
  let thr = function Some e -> Table.fmt_f ~dec:1 e.throughput | None -> "-" in
  let ratio r = if Float.is_nan r then "-" else Table.fmt_f ~dec:2 r in
  List.iter
    (fun c ->
      Table.add_row tbl
        [
          c.c_workload;
          c.c_mode;
          thr c.c_old;
          thr c.c_new;
          ratio c.ratio;
          ratio c.p99_ratio;
          ratio c.abort_ratio;
          verdict_label c.verdict;
        ])
    comparisons;
  let count v = List.length (List.filter (fun c -> c.verdict = v) comparisons) in
  Table.render tbl
  ^ Printf.sprintf
      "%d cells: %d ok, %d improved, %d regressed, %d added, %d removed\n"
      (List.length comparisons) (count Neutral) (count Improved)
      (count Regressed) (count Added) (count Removed)

(* ------------------------------------------------------------------ *)
(* sim-series gating: wall-clock events/sec (machine-relative) and the
   allocation rate (deterministic), judged with the same ±threshold rule
   as throughput.  Allocation regresses *upward*: more minor words per
   event than the baseline allows is the failure, and an absolute budget
   backstops the relative gate so a baseline taken on an allocation-heavy
   build can never grandfather the regression in. *)

type sim_comparison = {
  s_workload : string;
  s_old : sim_entry option;
  s_new : sim_entry option;
  s_speed_ratio : float;
  s_alloc_ratio : float;
  s_verdict : verdict;
}

let compare_sims ?(threshold = 0.2) ~baseline fresh =
  if not (threshold > 0. && threshold < 1.) then
    invalid_arg "Bench.compare_sims: threshold must be in (0, 1)";
  let index sims =
    let h = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace h e.sim_workload e) sims;
    h
  in
  let old_by = index baseline.sims and new_by = index fresh.sims in
  let names =
    List.sort_uniq compare
      (List.map (fun e -> e.sim_workload) baseline.sims
      @ List.map (fun e -> e.sim_workload) fresh.sims)
  in
  List.map
    (fun w ->
      let s_old = Hashtbl.find_opt old_by w in
      let s_new = Hashtbl.find_opt new_by w in
      let speed, alloc, verdict =
        match (s_old, s_new) with
        | None, Some _ -> (nan, nan, Added)
        | Some _, None -> (nan, nan, Removed)
        | None, None -> assert false
        | Some o, Some n ->
          let speed =
            if o.sim_events_per_sec = 0. then 1.
            else n.sim_events_per_sec /. o.sim_events_per_sec
          in
          (* a zero-allocation baseline cell leaves nothing to be relative
             to; the absolute budget still applies *)
          let alloc =
            if o.sim_minor_words_per_event <= 0. then 1.
            else n.sim_minor_words_per_event /. o.sim_minor_words_per_event
          in
          let verdict =
            if speed < 1. -. threshold || alloc > 1. +. threshold then Regressed
            else if speed > 1. +. threshold || alloc < 1. -. threshold then
              Improved
            else Neutral
          in
          (speed, alloc, verdict)
      in
      {
        s_workload = w;
        s_old;
        s_new;
        s_speed_ratio = speed;
        s_alloc_ratio = alloc;
        s_verdict = verdict;
      })
    names

let sim_regressions = List.filter (fun c -> c.s_verdict = Regressed)

let render_compare_sims comparisons =
  let tbl =
    Table.create
      [
        "Benchmark"; "base ev/s"; "new ev/s"; "speed"; "base w/ev"; "new w/ev";
        "alloc"; "verdict";
      ]
  in
  let evs = function Some e -> Table.fmt_f ~dec:0 e.sim_events_per_sec | None -> "-" in
  let wpe = function
    | Some e -> Table.fmt_f ~dec:3 e.sim_minor_words_per_event
    | None -> "-"
  in
  let ratio r = if Float.is_nan r then "-" else Table.fmt_f ~dec:2 r in
  List.iter
    (fun c ->
      Table.add_row tbl
        [
          c.s_workload;
          evs c.s_old;
          evs c.s_new;
          ratio c.s_speed_ratio;
          wpe c.s_old;
          wpe c.s_new;
          ratio c.s_alloc_ratio;
          verdict_label c.s_verdict;
        ])
    comparisons;
  let count v =
    List.length (List.filter (fun c -> c.s_verdict = v) comparisons)
  in
  Table.render tbl
  ^ Printf.sprintf
      "%d sim cells: %d ok, %d improved, %d regressed, %d added, %d removed\n"
      (List.length comparisons) (count Neutral) (count Improved)
      (count Regressed) (count Added) (count Removed)

(* The tentpole's absolute steady-state bound: fewer than 64 minor-heap
   words per simulated event, with machine construction amortised in. *)
let minor_words_budget = 64.

let alloc_violations t =
  List.filter (fun e -> e.sim_minor_words_per_event >= minor_words_budget) t.sims

let workload_names ws = List.map (fun (w : Workload.t) -> w.Workload.name) ws
