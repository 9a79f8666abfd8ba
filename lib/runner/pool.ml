type 'a outcome =
  | Done of 'a
  | Failed of string

let classify thunk =
  match thunk () with
  | v -> Done v
  | exception e -> Failed (Printexc.to_string e)

let nop1 _ = ()
let nop2 _ _ = ()

(* Sleeps are sliced so the pool never waits out a whole period once the
   jobs are done. *)
let spawn_ticker ~stop ~period f =
  Domain.spawn (fun () ->
      let slice = Float.min 0.05 (Float.max 0.001 (period /. 4.)) in
      let rec run waited =
        if not (Atomic.get stop) then
          if waited >= period then begin
            f ();
            run 0.
          end
          else begin
            Unix.sleepf slice;
            run (waited +. slice)
          end
      in
      run 0.)

let map ?(jobs = Domain.recommended_domain_count ()) ?(on_start = nop1)
    ?(on_done = nop2) ?tick thunks =
  let n = Array.length thunks in
  let jobs = max 1 (min jobs n) in
  let results = Array.make n (Failed "job was never scheduled") in
  (* every callback runs under [mu]: on whichever domain got there, but
     never two at once *)
  let mu = Mutex.create () in
  let locked f = Mutex.protect mu f in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      locked (fun () -> on_start i);
      let out = classify thunks.(i) in
      (* read by the caller only after joining the domain that wrote it *)
      results.(i) <- out;
      locked (fun () -> on_done i out);
      work ()
    end
  in
  let stop = Atomic.make false in
  let ticker =
    match tick with
    | Some (period, f) when jobs > 1 ->
      Some (spawn_ticker ~stop ~period (fun () -> locked f))
    | _ -> None
  in
  (* with [jobs = 1] the calling domain runs every job inline *)
  let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join domains;
  Atomic.set stop true;
  Option.iter Domain.join ticker;
  results
