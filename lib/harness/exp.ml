open Stx_machine
open Stx_core
open Stx_sim
open Stx_workloads
open Stx_runner

type cell = Workload.t * Mode.t * int

type t = {
  seed : int;
  scale : float;
  threads : int;
  jobs : int;
  policy : Stx_policy.t;
  memo : (string * string * int, Stats.t) Hashtbl.t;
}

let create ?(seed = 1) ?(scale = 1.0) ?(threads = 16) ?(jobs = 1)
    ?(policy = Stx_policy.default) () =
  if threads < 1 then invalid_arg "Exp.create: threads < 1";
  if not (scale > 0. && Float.is_finite scale) then
    invalid_arg "Exp.create: scale must be positive and finite";
  { seed; scale; threads; jobs; policy; memo = Hashtbl.create 64 }

let seed t = t.seed
let scale t = t.scale
let threads t = t.threads
let jobs t = t.jobs
let policy t = t.policy

(* the memo key omits the policy: a context runs every cell under its
   one bundle, so the (workload, mode, threads) coordinate is unique *)
let memo_key (w : Workload.t) mode threads =
  (w.Workload.name, Mode.to_string mode, threads)

(* a cell runs bare: every report built on cells reads only [Stats] *)
let simulate t ((w : Workload.t), mode, threads) =
  let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale:t.scale w in
  let cfg = Config.with_cores threads Config.default in
  Machine.run ~seed:t.seed ~htm_policy:t.policy ~cfg ~mode spec

let run_at t w mode ~threads =
  let key = memo_key w mode threads in
  match Hashtbl.find_opt t.memo key with
  | Some r -> r
  | None ->
    let r = simulate t (w, mode, threads) in
    Hashtbl.add t.memo key r;
    r

let run t w mode = run_at t w mode ~threads:t.threads

let sequential t w = run_at t w Mode.Baseline ~threads:1

let label t ((w : Workload.t), mode, threads) =
  let base =
    Printf.sprintf "%s/%s/t%d" w.Workload.name (Mode.to_string mode) threads
  in
  if Stx_policy.equal t.policy Stx_policy.default then base
  else base ^ "/" ^ Stx_policy.label t.policy

let prefetch ?(progress = false) t cells =
  let queued = Hashtbl.create 64 in
  let missing (w, mode, threads) =
    let key = memo_key w mode threads in
    let fresh = not (Hashtbl.mem t.memo key || Hashtbl.mem queued key) in
    if fresh then Hashtbl.add queued key ();
    fresh
  in
  let pending = Array.of_list (List.filter missing cells) in
  let p = Progress.create ~total:(Array.length pending) () in
  let report f i = if progress then f p (label t pending.(i)) in
  let status = function
    | Pool.Done _ -> "done"
    | Pool.Failed msg -> "FAILED: " ^ msg
  in
  (* CI logs (stdout redirected) would otherwise be silent for minutes
     between completions of long cells; a terminal user already sees the
     per-cell lines scroll *)
  let tick =
    if progress && not (Unix.isatty Unix.stdout) then
      Some (10., fun () -> Progress.heartbeat p)
    else None
  in
  let outcomes =
    Pool.map ~jobs:t.jobs ?tick
      ~on_start:(report Progress.job_started)
      ~on_done:(fun i out ->
        report (fun p l -> Progress.job_finished p l ~status:(status out)) i)
      (Array.map (fun cell () -> simulate t cell) pending)
  in
  if progress && Array.length pending > 0 then Progress.finish p;
  (* a failed cell stays empty: the next run_at retries it sequentially
     and raises in its natural context *)
  Array.iteri
    (fun i (w, mode, threads) ->
      match outcomes.(i) with
      | Pool.Done r -> Hashtbl.add t.memo (memo_key w mode threads) r
      | Pool.Failed _ -> ())
    pending

let standard_cells t =
  List.concat_map
    (fun w ->
      (w, Mode.Baseline, 1)
      :: List.map (fun m -> (w, m, t.threads)) Mode.all)
    Registry.all

let speedup t w (s : Stats.t) =
  let seq = sequential t w in
  Stx_util.Stat.ratio seq.Stats.total_cycles s.Stats.total_cycles

let rel_performance t w mode =
  let base = run t w Mode.Baseline in
  let s = run t w mode in
  Stx_util.Stat.ratio base.Stats.total_cycles s.Stats.total_cycles
