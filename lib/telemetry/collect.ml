module M = Stx_sim.Machine
module Hist = Stx_metrics.Hist
module Stat = Stx_util.Stat

type t = {
  width : int;
  threads : int;
  mutable wins : Series.window array;  (* grows by doubling; [used] are live *)
  mutable used : int;
}

let default_window = 1000

let create ?(window = default_window) ~threads () =
  if window < 1 then invalid_arg "Telemetry.Collect.create: window < 1";
  if threads < 1 then invalid_arg "Telemetry.Collect.create: threads < 1";
  { width = window; threads; wins = [||]; used = 0 }

let window t = t.width
let threads t = t.threads

(* Window holding index [i], growing the array as the clock advances. *)
let win t i =
  if i >= t.used then begin
    if i >= Array.length t.wins then begin
      let cap = max 16 (max (i + 1) (2 * Array.length t.wins)) in
      let wins = Array.init cap (fun j ->
          if j < Array.length t.wins then t.wins.(j)
          else Series.empty ~threads:t.threads)
      in
      t.wins <- wins
    end;
    t.used <- i + 1
  end;
  t.wins.(i)

let at t time = win t (max 0 time / t.width)

let add (w : Series.window) (c : Series.column) n =
  w.counts.(c.index) <- w.counts.(c.index) + n

let count t time c = add (at t time) c 1

(* built once: an option built per event would allocate *)
let lock_tier = Some Series.lock_cycles
let stm_tier = Some Series.stm_cycles

(* Distribute a span of [cycles] ending at [time] over the windows it
   overlaps: each window's share goes to core [tid]'s busy cycles and,
   for an attempt outside the hardware tier, to that tier's column. *)
let span t ~time ~cycles ~tid tier =
  if cycles > 0 then begin
    let stop = max 0 time in
    let start = max 0 (stop - cycles) in
    let i0 = start / t.width in
    let i1 = if stop = start then i0 else (stop - 1) / t.width in
    for i = i0 to i1 do
      let lo = max start (i * t.width) in
      let hi = min stop ((i + 1) * t.width) in
      if hi > lo then begin
        let w = win t i in
        w.busy.(tid) <- w.busy.(tid) + (hi - lo);
        match tier with Some c -> add w c (hi - lo) | None -> ()
      end
    done
  end

let handler t ~time (ev : M.event) =
  match ev with
  | M.Tx_commit { tid; cycles; irrevocable; _ } ->
    if irrevocable then count t time Series.irrevocable_commits
    else count t time Series.hw_commits;
    span t ~time ~cycles ~tid (if irrevocable then lock_tier else None)
  | M.Tx_abort { tid; kind; conf_line; conf_pc; cycles; _ } ->
    let w = at t time in
    (match kind with
    | M.Conflict ->
      add w Series.conflict_aborts 1;
      (match conf_line with Some l -> Stat.bump w.conf_lines l | None -> ());
      (match conf_pc with Some pc -> Stat.bump w.conf_pcs pc | None -> ())
    | M.Lock_subscription -> add w Series.locksub_aborts 1
    | M.Capacity -> add w Series.capacity_aborts 1
    | M.Explicit -> add w Series.explicit_aborts 1
    | M.Stm_conflict -> add w Series.stm_conflict_aborts 1);
    span t ~time ~cycles ~tid None
  | M.Stm_commit { tid; cycles; _ } ->
    count t time Series.stm_commits;
    span t ~time ~cycles ~tid stm_tier
  | M.Stm_abort { tid; cycles; _ } ->
    count t time Series.stm_aborts;
    span t ~time ~cycles ~tid stm_tier
  | M.Lock_waiting _ -> count t time Series.lock_waits
  | M.Lock_acquired _ -> count t time Series.lock_acquires
  | M.Lock_timeout _ -> count t time Series.lock_timeouts
  | M.Req_done _ -> count t time Series.completed
  | M.Tx_begin _ | M.Tx_irrevocable _ | M.Alp_executed _ | M.Lock_attempt _
  | M.Lock_released _ | M.Backoff_start _ | M.Backoff_end _
  | M.Req_dispatch _ | M.Stm_begin _ ->
    ()

let note_offered t ~at:time = count t time Series.offered

let note_queue_depth t ~at:time depth =
  let w = at t time in
  if depth > Series.get w Series.queue_peak then
    w.counts.(Series.queue_peak.index) <- depth

let note_sojourn t ~at:time cycles =
  Hist.add (at t time).sojourn cycles

let copy (w : Series.window) : Series.window =
  {
    counts = Array.copy w.counts;
    busy = Array.copy w.busy;
    sojourn = Hist.merge w.sojourn (Hist.create ());
    conf_lines = Hashtbl.copy w.conf_lines;
    conf_pcs = Hashtbl.copy w.conf_pcs;
  }

let finalize ?horizon t =
  let n =
    match horizon with
    | None -> t.used
    | Some h -> max t.used ((max 0 h + t.width - 1) / t.width)
  in
  let windows =
    Array.init n (fun i ->
        if i < t.used then copy t.wins.(i) else Series.empty ~threads:t.threads)
  in
  { Series.width = t.width; threads = t.threads; windows }

let of_trace ?window ?horizon tr =
  let c = create ?window ~threads:(Stx_trace.Trace.threads tr) () in
  Stx_trace.Trace.iter tr (fun ~time ev -> handler c ~time ev);
  finalize ?horizon c
