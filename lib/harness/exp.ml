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
  { seed; scale; threads; jobs; policy; memo = Hashtbl.create 64 }

let seed t = t.seed
let scale t = t.scale
let threads t = t.threads
let jobs t = t.jobs
let policy t = t.policy

let mode_key m = Mode.to_string m

(* the memo key omits the policy: a context runs every cell under its
   one bundle, so the (workload, mode, threads) coordinate is unique *)
let job_of t (w : Workload.t) mode ~threads =
  Job.make ~policy:t.policy ~workload:w.Workload.name ~mode ~threads
    ~seed:t.seed ~scale:t.scale ()

let memo_key (w : Workload.t) mode threads = (w.Workload.name, mode_key mode, threads)

let run_at t w mode ~threads =
  let key = memo_key w mode threads in
  match Hashtbl.find_opt t.memo key with
  | Some r -> r
  | None ->
    let r = Sweep.run_job (job_of t w mode ~threads) in
    Hashtbl.add t.memo key r;
    r

let run t w mode = run_at t w mode ~threads:t.threads

let sequential t w = run_at t w Mode.Baseline ~threads:1

let prefetch ?(progress = false) t cells =
  let pending =
    List.filter_map
      (fun (w, mode, threads) ->
        if Hashtbl.mem t.memo (memo_key w mode threads) then None
        else Some ((w, mode, threads), job_of t w mode ~threads))
      cells
  in
  if pending <> [] then begin
    let batch =
      Sweep.run_batch ~jobs:t.jobs ~progress (List.map snd pending)
    in
    List.iter2
      (fun ((w, mode, threads), _) (_, outcome) ->
        match outcome with
        | Pool.Done r ->
          let key = memo_key w mode threads in
          if not (Hashtbl.mem t.memo key) then Hashtbl.add t.memo key r
        | Pool.Failed _ ->
          (* leave the cell empty: a later run_at retries it sequentially
             and surfaces the error in its natural context *)
          ())
      pending batch.Sweep.results
  end

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
