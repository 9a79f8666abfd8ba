open Stx_sim

type kind = Attempt | Wait | Hold | Backoff | Request

type span = {
  mutable kind : kind;
  mutable tid : int;
  mutable start : int;
  mutable stop : int;
  mutable ab : int;
  mutable attempt : int;
  mutable probe : bool;
  mutable acquires : int;
  mutable first_acquire : int;
  mutable waited : int;
  mutable lock : int;
  mutable line : int;
}

(* One thread's open brackets. Ids are non-negative, so -1 means "none
   open"; the attempt's block survives its close for backoff
   attribution. *)
type thread = {
  mutable last : int;
  mutable tier : int; (* open attempt: -1 none, 0 hardware, 1 software *)
  mutable a_start : int;
  mutable a_ab : int;
  mutable a_attempt : int;
  mutable a_probe : bool;
  mutable a_acquires : int;
  mutable a_first : int;
  mutable a_waited : int;
  mutable hold : int;
  mutable h_start : int;
  mutable h_line : int;
  mutable wait : int;
  mutable w_start : int;
  mutable backoff : int; (* start time, -1 when none *)
  mutable req : int;
  mutable r_start : int;
}

type t = {
  mutable threads : thread array;
  span : span;
  on_span : span -> Machine.event -> unit;
  on_error : string -> unit;
}

let fresh _ =
  {
    last = 0;
    tier = -1;
    a_start = 0;
    a_ab = 0;
    a_attempt = 0;
    a_probe = false;
    a_acquires = 0;
    a_first = -1;
    a_waited = 0;
    hold = -1;
    h_start = 0;
    h_line = 0;
    wait = -1;
    w_start = 0;
    backoff = -1;
    req = -1;
    r_start = 0;
  }

let create ?(on_error = ignore) ~on_span () =
  {
    threads = Array.init 16 fresh;
    span =
      {
        kind = Attempt;
        tid = 0;
        start = 0;
        stop = 0;
        ab = 0;
        attempt = 0;
        probe = false;
        acquires = 0;
        first_acquire = -1;
        waited = 0;
        lock = -1;
        line = 0;
      };
    on_span;
    on_error;
  }

let err t fmt = Printf.ksprintf t.on_error fmt

let thread t tid =
  if tid < 0 then invalid_arg "Lifecycle.step: negative thread id";
  let n = Array.length t.threads in
  if tid >= n then
    t.threads <-
      Array.init (max (tid + 1) (2 * n)) (fun i -> if i < n then t.threads.(i) else fresh i);
  t.threads.(tid)

let emit t kind ~tid ~start ~stop ev =
  let s = t.span in
  s.kind <- kind;
  s.tid <- tid;
  s.start <- start;
  s.stop <- stop;
  t.on_span s ev

let close_wait t th ~tid ~time ev =
  if th.wait >= 0 then begin
    if th.tier >= 0 then th.a_waited <- th.a_waited + (time - th.w_start);
    t.span.lock <- th.wait;
    th.wait <- -1;
    emit t Wait ~tid ~start:th.w_start ~stop:time ev
  end

let open_attempt th ~time ~tier ~ab ~attempt ~probe =
  th.tier <- tier;
  th.a_start <- time;
  th.a_ab <- ab;
  th.a_attempt <- attempt;
  th.a_probe <- probe;
  th.a_acquires <- 0;
  th.a_first <- -1;
  th.a_waited <- 0;
  th.hold <- -1

(* A commit or abort of either tier. A hardware abort can land while the
   victim spins on an advisory lock, so it closes that wait first; the
   other closers only drop a wait, as no protocol reaches them mid-spin. *)
let close_attempt t th ~tid ~time ~ab ~stm ~outcome ev =
  let tier = if stm then "software " else "" in
  if th.tier < 0 then err t "thread %d: %s%s at %d with no open attempt" tid tier outcome time
  else begin
    if th.a_ab <> ab then
      err t "thread %d: %s%s names ab%d but the open attempt is ab%d" tid tier outcome ab
        th.a_ab;
    if stm && th.tier = 0 then
      err t "thread %d: software %s at %d closes a hardware attempt" tid outcome time;
    if (not stm) && th.tier = 1 then
      err t "thread %d: hardware %s at %d closes a software attempt" tid outcome time;
    if (not stm) && th.hold >= 0 then
      err t "thread %d: advisory lock still held at %s (time %d)" tid outcome time
  end;
  (match ev with Machine.Tx_abort _ -> close_wait t th ~tid ~time ev | _ -> th.wait <- -1);
  if th.tier >= 0 then begin
    let s = t.span in
    s.ab <- th.a_ab;
    s.attempt <- th.a_attempt;
    s.probe <- th.a_probe;
    s.acquires <- th.a_acquires;
    s.first_acquire <- th.a_first;
    s.waited <- th.a_waited;
    th.tier <- -1;
    th.hold <- -1;
    emit t Attempt ~tid ~start:th.a_start ~stop:time ev
  end

let step t ~time (ev : Machine.event) =
  let tid = Machine.tid_of ev in
  let th = thread t tid in
  if time < th.last then
    err t "thread %d: clock went backwards (%d after %d)" tid time th.last;
  th.last <- time;
  match ev with
  | Tx_begin { ab; attempt; probe; _ } ->
    if th.tier >= 0 then err t "thread %d: begin at %d while an attempt is open" tid time;
    open_attempt th ~time ~tier:0 ~ab ~attempt ~probe
  | Stm_begin { ab; attempt; _ } ->
    if th.tier >= 0 then
      err t "thread %d: software begin at %d while an attempt is open" tid time;
    open_attempt th ~time ~tier:1 ~ab ~attempt ~probe:false
  | Tx_commit { ab; _ } -> close_attempt t th ~tid ~time ~ab ~stm:false ~outcome:"commit" ev
  | Tx_abort { ab; _ } -> close_attempt t th ~tid ~time ~ab ~stm:false ~outcome:"abort" ev
  | Stm_commit { ab; _ } -> close_attempt t th ~tid ~time ~ab ~stm:true ~outcome:"commit" ev
  | Stm_abort { ab; _ } -> close_attempt t th ~tid ~time ~ab ~stm:true ~outcome:"abort" ev
  | Tx_irrevocable _ ->
    if th.tier >= 0 then
      err t "thread %d: irrevocable entry at %d inside an open attempt" tid time
  | Alp_executed _ ->
    if th.tier < 0 then err t "thread %d: ALP executed at %d outside a transaction" tid time
    else if th.tier = 1 then
      err t "thread %d: ALP executed at %d inside a software attempt" tid time
  | Lock_attempt _ ->
    if th.tier < 0 then err t "thread %d: lock attempt at %d outside a transaction" tid time
    else begin
      if th.tier = 1 then
        err t "thread %d: advisory lock attempt at %d inside a software attempt" tid time;
      if th.hold >= 0 then
        err t "thread %d: lock attempt at %d while already holding a lock" tid time
    end
  | Lock_acquired { lock; line; _ } ->
    if th.tier < 0 then err t "thread %d: lock acquired at %d outside a transaction" tid time
    else begin
      if th.tier = 1 then
        err t "thread %d: advisory lock acquired at %d inside a software attempt" tid time;
      if th.hold >= 0 then err t "thread %d: second advisory lock acquired at %d" tid time;
      if th.a_acquires >= 1 then
        err t "thread %d: more than one advisory lock acquisition in one attempt" tid;
      th.hold <- lock;
      th.h_start <- time;
      th.h_line <- line;
      th.a_acquires <- th.a_acquires + 1;
      if th.a_first < 0 then th.a_first <- time
    end;
    close_wait t th ~tid ~time ev
  | Lock_released { lock; _ } ->
    if th.tier < 0 then err t "thread %d: lock released at %d outside a transaction" tid time
    else if th.hold <> lock then err t "thread %d: released lock %d it does not hold" tid lock
    else begin
      th.hold <- -1;
      t.span.lock <- lock;
      t.span.line <- th.h_line;
      emit t Hold ~tid ~start:th.h_start ~stop:time ev
    end
  | Lock_waiting { lock; _ } ->
    if th.tier < 0 then err t "thread %d: lock wait at %d outside a transaction" tid time;
    th.wait <- lock;
    th.w_start <- time
  | Lock_timeout { lock; _ } ->
    if th.wait <> lock then
      err t "thread %d: timeout on lock %d it was not waiting for" tid lock;
    close_wait t th ~tid ~time ev
  | Backoff_start _ ->
    if th.tier >= 0 then
      err t "thread %d: backoff started at %d inside an open attempt" tid time;
    if th.backoff >= 0 then err t "thread %d: nested backoff at %d" tid time;
    th.backoff <- time
  | Backoff_end _ ->
    if th.backoff < 0 then err t "thread %d: backoff ended at %d without a start" tid time
    else begin
      let start = th.backoff in
      th.backoff <- -1;
      t.span.ab <- th.a_ab;
      emit t Backoff ~tid ~start ~stop:time ev
    end
  | Req_dispatch { req; _ } ->
    if th.req >= 0 then
      err t "thread %d: request %d dispatched at %d while request %d is in flight" tid req
        time th.req;
    if th.tier >= 0 then
      err t "thread %d: request %d dispatched at %d inside an open attempt" tid req time;
    th.req <- req;
    th.r_start <- time
  | Req_done { req; _ } ->
    if th.req < 0 then err t "thread %d: request %d done at %d without a dispatch" tid req time
    else if th.req <> req then begin
      err t "thread %d: request %d done at %d but request %d is in flight" tid req time
        th.req;
      th.req <- -1
    end
    else begin
      th.req <- -1;
      emit t Request ~tid ~start:th.r_start ~stop:time ev
    end

let finish t =
  Array.iteri
    (fun tid th ->
      if th.tier >= 0 then err t "thread %d: attempt still open at end of trace" tid;
      if th.backoff >= 0 then err t "thread %d: backoff still open at end of trace" tid;
      if th.req >= 0 then
        err t "thread %d: request %d still in flight at end of trace" tid th.req)
    t.threads
