open Stx_machine
open Stx_core
open Stx_sim
open Stx_workloads

let run_job (j : Job.t) : Stats.t =
  match Registry.find j.Job.workload with
  | None -> invalid_arg ("Sweep.run_job: unknown workload " ^ j.Job.workload)
  | Some w ->
    let instrument = Mode.uses_alps j.Job.mode in
    let spec = Workload.spec ~instrument ~scale:j.Job.scale w in
    let cfg = Config.with_cores j.Job.threads Config.default in
    Machine.run ~seed:j.Job.seed ~htm_policy:j.Job.policy ~cfg
      ~mode:j.Job.mode spec

type batch = {
  results : (Job.t * Stats.t Pool.outcome) list;
  executed : int;
}

let status_of = function
  | Pool.Done _ -> "done"
  | Pool.Failed msg -> "FAILED: " ^ msg

let run_batch ?jobs ?(progress = false) (specs : Job.t list) =
  (* each distinct spec simulates once; [slots] maps every input job to
     its spec's index in [uniq], so outcomes fan back out in input order *)
  let index = Hashtbl.create 64 and uniq = ref [] in
  let slots =
    List.map
      (fun j ->
        match Hashtbl.find_opt index j with
        | Some i -> i
        | None ->
          let i = Hashtbl.length index in
          Hashtbl.add index j i;
          uniq := j :: !uniq;
          i)
      specs
  in
  let uniq = Array.of_list (List.rev !uniq) in
  let reporter =
    if progress then Some (Progress.create ~total:(Array.length uniq) ())
    else None
  in
  let on_start i =
    Option.iter (fun p -> Progress.job_started p (Job.label uniq.(i))) reporter
  in
  let on_done i out =
    Option.iter
      (fun p ->
        Progress.job_finished p (Job.label uniq.(i)) ~status:(status_of out))
      reporter
  in
  (* CI logs (stdout redirected) would otherwise be silent for minutes
     between completions of long jobs; a terminal user already sees the
     per-job lines scroll *)
  let tick =
    match reporter with
    | Some p when not (Unix.isatty Unix.stdout) ->
      Some (10., fun () -> Progress.heartbeat p)
    | _ -> None
  in
  let outcomes =
    Pool.map ?jobs ~on_start ~on_done ?tick
      (Array.map (fun j () -> run_job j) uniq)
  in
  Option.iter (fun p -> if Array.length uniq > 0 then Progress.finish p) reporter;
  {
    results = List.map2 (fun j i -> (j, outcomes.(i))) specs slots;
    executed = Array.length uniq;
  }
