type 'a outcome =
  | Done of 'a
  | Failed of string

type event = Started of int | Finished of int | Tick

type 'a shared = {
  mu : Mutex.t;
  cond : Condition.t;  (* signalled by workers when an event is queued *)
  mutable next : int;  (* next job index to hand out *)
  mutable finished : int;
  events : event Queue.t;
  results : 'a outcome option array;
  thunks : (unit -> 'a) array;
}

let classify thunk =
  match thunk () with
  | v -> Done v
  | exception e -> Failed (Printexc.to_string e)

let push_event sh ev =
  Mutex.lock sh.mu;
  Queue.push ev sh.events;
  (match ev with
  | Finished _ -> sh.finished <- sh.finished + 1
  | Started _ | Tick -> ());
  Condition.signal sh.cond;
  Mutex.unlock sh.mu

let take_job sh =
  Mutex.lock sh.mu;
  let i =
    if sh.next < Array.length sh.thunks then begin
      let i = sh.next in
      sh.next <- sh.next + 1;
      Some i
    end
    else None
  in
  Mutex.unlock sh.mu;
  i

let worker sh =
  let rec loop () =
    match take_job sh with
    | None -> ()
    | Some i ->
      push_event sh (Started i);
      let out = classify sh.thunks.(i) in
      (* results are only read by the coordinator after it has seen the
         Finished event, which is queued under the same mutex *)
      sh.results.(i) <- Some out;
      push_event sh (Finished i);
      loop ()
  in
  loop ()

let dispatch sh ~on_start ~on_done ~on_tick = function
  | Started i -> on_start i
  | Finished i ->
    (match sh.results.(i) with
    | Some out -> on_done i out
    | None -> assert false)
  | Tick -> on_tick ()

let nop1 _ = ()
let nop2 _ _ = ()

(* The ticker is its own domain so the coordinator can keep blocking on
   the condition variable (the stdlib has no timed wait); it only
   *queues* Tick events — the callback itself always runs on the
   coordinating domain, like every other callback. Sleeps are sliced so
   shutdown never waits out a whole period. *)
let spawn_ticker sh ~stop ~period =
  Domain.spawn (fun () ->
      let slice = Float.min 0.05 (Float.max 0.001 (period /. 4.)) in
      let rec run since =
        if not (Atomic.get stop) then begin
          Unix.sleepf slice;
          let waited = since +. slice in
          if waited >= period then begin
            if not (Atomic.get stop) then push_event sh Tick;
            run 0.
          end
          else run waited
        end
      in
      run 0.)

let map ?(jobs = Domain.recommended_domain_count ()) ?(on_start = nop1)
    ?(on_done = nop2) ?tick thunks =
  let n = Array.length thunks in
  let sh =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      next = 0;
      finished = 0;
      events = Queue.create ();
      results = Array.make n None;
      thunks;
    }
  in
  if n = 0 then [||]
  else begin
    let jobs = max 1 (min jobs n) in
    if jobs = 1 then
      (* no domains: run inline on the calling domain, same observable
         behaviour (events in start/finish order per job) *)
      for i = 0 to n - 1 do
        on_start i;
        let out = classify thunks.(i) in
        sh.results.(i) <- Some out;
        on_done i out
      done
    else begin
      let domains = Array.init jobs (fun _ -> Domain.spawn (fun () -> worker sh)) in
      let stop = Atomic.make false in
      let ticker =
        Option.map (fun (period, _) -> spawn_ticker sh ~stop ~period) tick
      in
      let on_tick =
        match tick with Some (_, f) -> f | None -> fun () -> ()
      in
      (* The calling domain is the coordinator: it drains worker events and
         runs the callbacks, so progress reporting never races. *)
      let rec drain () =
        Mutex.lock sh.mu;
        while Queue.is_empty sh.events && sh.finished < n do
          Condition.wait sh.cond sh.mu
        done;
        let pending = Queue.fold (fun acc ev -> ev :: acc) [] sh.events in
        Queue.clear sh.events;
        let all_done = sh.finished >= n in
        Mutex.unlock sh.mu;
        List.iter (dispatch sh ~on_start ~on_done ~on_tick) (List.rev pending);
        if not (all_done && pending = []) then drain ()
      in
      drain ();
      Atomic.set stop true;
      Array.iter Domain.join domains;
      Option.iter Domain.join ticker
    end;
    Array.map
      (function Some out -> out | None -> Failed "job was never scheduled")
      sh.results
  end
