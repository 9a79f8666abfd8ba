open Stx_sim
module Trace = Stx_trace.Trace

(* A thin renderer: the events live in a Trace; rendering replays the
   window and reconstructs each lane. *)

let render ?(width = 100) ?(from_time = 0) ?until_time t =
  let threads = Trace.threads t in
  let tmax =
    match until_time with
    | Some u -> u
    | None ->
      let m = ref (from_time + 1) in
      Trace.iter t (fun ~time _ -> if time > !m then m := time);
      !m
  in
  let span = max 1 (tmax - from_time) in
  let col time = min (width - 1) (max 0 ((time - from_time) * width / span)) in
  let lanes = Array.init threads (fun _ -> Bytes.make width '.') in
  let state = Array.make threads `Idle in
  (* irrevocable mode survives the begin that follows Tx_irrevocable and
     ends at the commit *)
  let irrev = Array.make threads false in
  let last_col = Array.make threads 0 in
  let background = function
    | `Idle -> '.'
    | `Tx -> '='
    | `Irrev -> 'I'
    | `Stm -> 'S'
    | `Wait -> 'w'
    | `Backoff -> 'b'
  in
  let fill tid upto ch =
    for c = last_col.(tid) to min (width - 1) upto do
      if Bytes.get lanes.(tid) c = '.' then Bytes.set lanes.(tid) c ch
    done
  in
  let transition tid ev =
    match ev with
    | Machine.Tx_begin _ ->
      state.(tid) <- (if irrev.(tid) then `Irrev else `Tx);
      None
    | Machine.Tx_commit _ ->
      state.(tid) <- `Idle;
      irrev.(tid) <- false;
      Some 'C'
    | Machine.Tx_abort _ ->
      (* what follows an abort is backoff (or the global-lock spin), not
         transactional work: render it as a stall, not as '=' *)
      state.(tid) <- `Backoff;
      Some 'X'
    | Machine.Tx_irrevocable _ ->
      irrev.(tid) <- true;
      None
    | Machine.Lock_acquired _ ->
      state.(tid) <- `Tx;
      Some 'L'
    | Machine.Lock_waiting _ ->
      state.(tid) <- `Wait;
      Some 'w'
    | Machine.Lock_timeout _ ->
      (* a timed-out waiter resumes its transaction *)
      state.(tid) <- `Tx;
      Some 'T'
    | Machine.Backoff_start _ ->
      state.(tid) <- `Backoff;
      None
    | Machine.Stm_begin _ ->
      state.(tid) <- `Stm;
      None
    | Machine.Stm_commit _ ->
      state.(tid) <- `Idle;
      Some 'C'
    | Machine.Stm_abort _ ->
      state.(tid) <- `Backoff;
      Some 'X'
    | Machine.Backoff_end _ | Machine.Alp_executed _ | Machine.Lock_attempt _
    | Machine.Lock_released _ | Machine.Req_dispatch _ | Machine.Req_done _ ->
      None
  in
  Trace.iter t (fun ~time ev ->
      let tid = Machine.tid_of ev in
      if tid >= 0 && tid < threads && time <= tmax then
        if time < from_time then
          (* before the window: replay the state change so the window opens
             in the right state, but paint nothing — a pre-window event
             must not leave a marker at column 0 *)
          ignore (transition tid ev)
        else begin
          let c = col time in
          fill tid (c - 1) (background state.(tid));
          (match transition tid ev with
          | Some marker -> Bytes.set lanes.(tid) c marker
          | None -> ());
          last_col.(tid) <- c + 1
        end);
  Array.iteri (fun tid _ -> fill tid (width - 1) (background state.(tid))) lanes;
  let buf = Buffer.create ((width + 8) * threads) in
  Buffer.add_string buf
    (Printf.sprintf
       "cycles %d..%d  (. idle  = in-tx  I irrevocable  S stm  w waiting  b \
        backoff  X abort  C commit  L lock  T timeout)\n"
       from_time tmax);
  Array.iteri
    (fun tid lane ->
      Buffer.add_string buf (Printf.sprintf "t%-2d |%s|\n" tid (Bytes.to_string lane)))
    lanes;
  Buffer.contents buf
