open Cmdliner

(* stdout first: a report printed before the failure stays ahead of it *)
let fail msg =
  flush stdout;
  prerr_endline msg;
  exit 1

let parsed flag parse v =
  match parse v with
  | Ok x -> x
  | Error msg -> fail (Printf.sprintf "bad --%s %s: %s" flag v msg)

let positive flag n =
  if n < 1 then fail (Printf.sprintf "bad --%s %d: must be positive" flag n);
  n

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let scale =
  let check s =
    if s > 0. && Float.is_finite s then s
    else fail (Printf.sprintf "bad --scale %g: must be positive and finite" s)
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt float 1.0
        & info [ "scale" ]
            ~doc:"Workload size multiplier (1.0 = default inputs)."))

let threads =
  Term.(
    const (positive "threads")
    $ Arg.(
        value
        & opt int 16
        & info [ "threads"; "t" ]
            ~doc:"Simulated threads, one per core (per shard when serving)."))

let jobs =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ]
        ~doc:
          "Simulations to run in parallel (OCaml domains); never changes a \
           result. Defaults to the recommended domain count of this machine.")

let mode =
  let parse s =
    match Stx_core.Mode.of_string s with
    | Some m -> m
    | None ->
      fail ("unknown mode: " ^ s ^ " (HTM|AddrOnly|Staggered+SW|Staggered)")
  in
  Term.(
    const parse
    $ Arg.(
        value
        & opt string "Staggered"
        & info [ "mode"; "m" ]
            ~doc:
              "Runtime mode: $(b,HTM), $(b,AddrOnly), $(b,Staggered+SW) or \
               $(b,Staggered)."))

let policy =
  let axis flag default parse doc =
    let arg = Arg.value (Arg.opt Arg.string default (Arg.info [ flag ] ~doc)) in
    Term.(const (parsed flag parse) $ arg)
  in
  let make resolution capacity fallback =
    Stx_policy.make ~resolution ~capacity ~fallback ()
  in
  Term.(
    const make
    $ axis "policy" "requester-wins" Stx_policy.Resolution.of_string
        "Conflict-resolution policy: $(b,requester-wins) (the paper's \
         hardware), $(b,responder-wins) (suicide on conflict with an \
         established owner), or $(b,timestamp) (karma: the older transaction \
         wins)."
    $ axis "capacity" "unbounded" Stx_policy.Capacity.of_string
        "HTM capacity policy: $(b,unbounded), or $(b,bounded:R:W) for a hard \
         limit of R read-set and W write-set cache lines (exceeding either \
         aborts with the capacity reason and goes straight to the irrevocable \
         fallback)."
    $ axis "fallback" "polite" Stx_policy.Fallback.of_string
        "Fallback policy: $(b,polite[:N]) (linear polite delay, irrevocable \
         after N attempts), $(b,backoff[:N[:BASE[:MAXEXP[:SEED]]]]) \
         (exponential randomized backoff from a dedicated PRNG stream), or \
         $(b,htm-stm-lock[:N[:S]]) (alias $(b,stm)): N hardware attempts, \
         then a TL2-style software tier for S attempts, then the global lock.")

let bench name =
  match Stx_workloads.Registry.find name with
  | Some w -> w
  | None -> fail ("unknown benchmark " ^ name)

(* a Sys_error message already leads with the file name; say it once *)
let fail_file what file msg =
  let prefix = file ^ ": " and n = String.length file + 2 in
  let msg =
    if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n) else msg
  in
  fail (Printf.sprintf "%s %s: %s" what file msg)

let write file output =
  try Out_channel.with_open_bin file output
  with Sys_error msg -> fail_file "cannot write" file msg

let write_file file doc = write file (fun oc -> output_string oc doc)

(* GC pressure is stamped on the exported copy only: a live registry
   must stay equal to a trace replay's *)
let write_metrics file reg =
  let reg = Stx_metrics.Gcstats.stamp reg in
  write_file file (Stx_metrics.Registry.to_json_string reg ^ "\n");
  Printf.printf "  metrics            %d series -> %s\n"
    (Stx_metrics.Registry.cardinality reg)
    file

let write_telemetry ~meta file series =
  write_file file
    (if Filename.check_suffix file ".csv" then
       Stx_telemetry.Series.to_csv ~meta series
     else Stx_telemetry.Series.to_jsonl ~meta series)

let print_episodes series =
  List.iter
    (fun e ->
      Printf.printf "  episode            %s\n"
        (Stx_telemetry.Episodes.to_string series e))
    (Stx_telemetry.Episodes.detect series)

let pool_map ~jobs f cells =
  Array.of_list cells
  |> Array.map (fun cell () -> f cell)
  |> Stx_runner.Pool.map ~jobs
  |> Array.to_list
  |> List.map (function
       | Stx_runner.Pool.Done r -> r
       | Stx_runner.Pool.Failed msg -> failwith msg)
