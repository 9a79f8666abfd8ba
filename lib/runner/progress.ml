module Hist = Stx_metrics.Hist

type t = {
  out : out_channel;
  total : int;
  now : unit -> float;
  t0 : float;
  mutable completed : int;
  mutable running : (string * float) list;  (* most recently started first *)
  durations : Hist.t;  (* per-job wall time, milliseconds *)
}

let create ?(out = stderr) ?(now = Unix.gettimeofday) ~total () =
  {
    out;
    total;
    now;
    t0 = now ();
    completed = 0;
    running = [];
    durations = Hist.create ();
  }

let eta t =
  if t.completed = 0 then nan
  else
    let elapsed = t.now () -. t.t0 in
    let per_job = elapsed /. float_of_int t.completed in
    (* the remaining jobs drain across every worker still in flight, not
       one after another: serial extrapolation over-estimates a parallel
       batch by roughly the worker count *)
    let workers = max 1 (List.length t.running) in
    per_job *. float_of_int (t.total - t.completed) /. float_of_int workers

let fmt_span s =
  if Float.is_nan s then "?"
  else if s < 60. then Printf.sprintf "%.1fs" s
  else Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)

let remove_first label l =
  let rec go = function
    | [] -> (None, [])
    | ((y, _) as entry) :: rest ->
      if y = label then (Some entry, rest)
      else
        let found, rest' = go rest in
        (found, entry :: rest')
  in
  go l

let job_started t label = t.running <- (label, t.now ()) :: t.running

let running_suffix t =
  match t.running with
  | [] -> ""
  | l ->
    let shown = List.filteri (fun i _ -> i < 3) l in
    let more = List.length l - List.length shown in
    Printf.sprintf "; running %s%s"
      (String.concat " " (List.map fst shown))
      (if more > 0 then Printf.sprintf " +%d" more else "")

let job_finished t label ~status =
  t.completed <- t.completed + 1;
  let started, running = remove_first label t.running in
  t.running <- running;
  (match started with
  | Some (_, at) ->
    Hist.add t.durations (int_of_float (Float.max 0. ((t.now () -. at) *. 1000.)))
  | None -> ());
  Printf.fprintf t.out "[%d/%d] %s %s (eta %s%s)\n%!" t.completed t.total
    label status (fmt_span (eta t)) (running_suffix t)

let wall_summary t =
  if Hist.is_empty t.durations then None
  else
    let span_of_ms ms = fmt_span (float_of_int ms /. 1000.) in
    Some
      (Printf.sprintf "job wall-time p50 %s p95 %s max %s"
         (span_of_ms (Hist.p50 t.durations))
         (span_of_ms (Hist.quantile t.durations 0.95))
         (span_of_ms (Hist.max_value t.durations)))

let heartbeat t =
  let summary =
    match wall_summary t with None -> "" | Some s -> "; " ^ s
  in
  Printf.fprintf t.out "heartbeat [%d/%d] eta %s%s%s\n%!" t.completed t.total
    (fmt_span (eta t)) summary (running_suffix t)

let finish t =
  let elapsed = t.now () -. t.t0 in
  let summary =
    match wall_summary t with None -> "" | Some s -> Printf.sprintf " (%s)" s
  in
  Printf.fprintf t.out "%d/%d jobs in %s%s\n%!" t.completed t.total
    (fmt_span elapsed) summary
