open Stx_sim

type t = { stats : Stats.t; metrics : Registry.t }

let simulate ?seed ?htm_policy ?on_event ~cfg ~mode spec =
  let c = Collect.create ?policy:htm_policy () in
  let hook =
    match on_event with
    | None -> Collect.handler c
    | Some f ->
      fun ~time ev ->
        Collect.handler c ~time ev;
        f ~time ev
  in
  let stats = Machine.run ?seed ?htm_policy ~on_event:hook ~cfg ~mode spec in
  { stats; metrics = Collect.registry c }

let merge a b =
  {
    stats = Stats.merge a.stats b.stats;
    metrics = Registry.merge a.metrics b.metrics;
  }
