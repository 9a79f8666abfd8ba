open Stx_core

type t = {
  workload : string;
  mode : Mode.t;
  threads : int;
  seed : int;
  scale : float;
  policy : Stx_policy.t;
}

let make ?(policy = Stx_policy.default) ~workload ~mode ~threads ~seed ~scale
    () =
  if threads < 1 then invalid_arg "Job.make: threads < 1";
  if not (scale > 0. && Float.is_finite scale) then
    invalid_arg "Job.make: scale must be positive and finite";
  { workload; mode; threads; seed; scale; policy }

let label j =
  let base =
    Printf.sprintf "%s/%s/t%d" j.workload (Mode.to_string j.mode) j.threads
  in
  if Stx_policy.equal j.policy Stx_policy.default then base
  else base ^ "/" ^ Stx_policy.label j.policy
