open Stx_sim

type t = {
  threads : int;
  r : Stats.t;  (* the replayed counts, in the record the simulator counts into *)
  lc : Lifecycle.t;
  errs : string list ref;  (* newest first *)
}

let err t fmt = Printf.ksprintf (fun s -> t.errs := s :: !(t.errs)) fmt

let create ~threads =
  let r = Stats.create ~threads in
  let errs = ref [] in
  let on_span (s : Lifecycle.span) _ =
    match s.kind with
    | Lifecycle.Attempt ->
      if s.acquires > 0 then begin
        let a = Stats.ab r s.ab in
        a.ab_locks <- a.ab_locks + s.acquires
      end
    | Lifecycle.Backoff -> r.backoff_cycles <- r.backoff_cycles + (s.stop - s.start)
    | Lifecycle.Wait | Lifecycle.Hold | Lifecycle.Request -> ()
  in
  let lc = Lifecycle.create ~on_error:(fun e -> errs := e :: !errs) ~on_span () in
  { threads; r; lc; errs }

let commit r ab cycles =
  let a = Stats.ab r ab in
  a.ab_commits <- a.ab_commits + 1;
  r.commits <- r.commits + 1;
  r.useful_cycles <- r.useful_cycles + cycles

let abort r ab cycles =
  let a = Stats.ab r ab in
  a.ab_aborts <- a.ab_aborts + 1;
  r.aborts <- r.aborts + 1;
  r.wasted_cycles <- r.wasted_cycles + cycles

let software t tid time ~what ~cycles ~vcycles =
  if vcycles > cycles then
    err t "thread %d: software %s at %d has vcycles %d > cycles %d" tid what time vcycles
      cycles;
  t.r.stm_validation_cycles <- t.r.stm_validation_cycles + vcycles

let handler t ~time ev =
  let tid = Machine.tid_of ev in
  if tid < 0 || tid >= t.threads then
    err t "event names thread %d but the trace covers %d threads" tid t.threads
  else begin
    Lifecycle.step t.lc ~time ev;
    let r = t.r in
    match ev with
    | Machine.Tx_commit { ab; cycles; irrevocable; _ } ->
      commit r ab cycles;
      if irrevocable then
        (Stats.ab r ab).ab_irrevocable <- (Stats.ab r ab).ab_irrevocable + 1
    | Machine.Tx_abort { ab; kind; cycles; _ } ->
      (match kind with
      | Machine.Conflict -> r.conflict_aborts <- r.conflict_aborts + 1
      | Machine.Lock_subscription -> r.lock_sub_aborts <- r.lock_sub_aborts + 1
      | Machine.Capacity -> r.capacity_aborts <- r.capacity_aborts + 1
      | Machine.Explicit -> r.explicit_aborts <- r.explicit_aborts + 1
      | Machine.Stm_conflict -> r.stm_conflict_aborts <- r.stm_conflict_aborts + 1);
      abort r ab cycles
    | Machine.Stm_commit { ab; cycles; vcycles; _ } ->
      software t tid time ~what:"commit" ~cycles ~vcycles;
      r.stm_commits <- r.stm_commits + 1;
      commit r ab cycles
    | Machine.Stm_abort { ab; kind; cycles; vcycles; _ } ->
      software t tid time ~what:"abort" ~cycles ~vcycles;
      r.stm_aborts <- r.stm_aborts + 1;
      (match kind with
      | Machine.Stm_validation -> r.stm_validation_aborts <- r.stm_validation_aborts + 1
      | Machine.Stm_hw_owned -> r.stm_hw_owned_aborts <- r.stm_hw_owned_aborts + 1
      | Machine.Stm_locksub -> r.stm_locksub_aborts <- r.stm_locksub_aborts + 1
      | Machine.Stm_explicit -> ());
      abort r ab cycles
    | Machine.Tx_irrevocable _ -> r.irrevocable_entries <- r.irrevocable_entries + 1
    | Machine.Alp_executed _ -> r.alps_executed <- r.alps_executed + 1
    | Machine.Lock_attempt _ -> r.alps_lock_attempts <- r.alps_lock_attempts + 1
    | Machine.Lock_acquired _ -> r.lock_acquires <- r.lock_acquires + 1
    | Machine.Lock_timeout _ -> r.lock_timeouts <- r.lock_timeouts + 1
    | Machine.Tx_begin _ | Machine.Stm_begin _ | Machine.Lock_released _
    | Machine.Lock_waiting _ | Machine.Backoff_start _ | Machine.Backoff_end _
    | Machine.Req_dispatch _ | Machine.Req_done _ ->
      ()
  end

let finish t (stats : Stats.t) =
  Lifecycle.finish t.lc;
  let r = t.r in
  (* reconcile the replayed counters against the inline ones *)
  let eq name trace stats =
    if trace <> stats then err t "%s: trace says %d, stats say %d" name trace stats
  in
  eq "commits" r.commits stats.commits;
  eq "aborts" r.aborts stats.aborts;
  eq "conflict aborts" r.conflict_aborts stats.conflict_aborts;
  eq "lock-subscription aborts" r.lock_sub_aborts stats.lock_sub_aborts;
  eq "capacity aborts" r.capacity_aborts stats.capacity_aborts;
  eq "explicit aborts" r.explicit_aborts stats.explicit_aborts;
  eq "stm-conflict aborts" r.stm_conflict_aborts stats.stm_conflict_aborts;
  eq "stm commits" r.stm_commits stats.stm_commits;
  eq "stm aborts" r.stm_aborts stats.stm_aborts;
  eq "stm validation aborts" r.stm_validation_aborts stats.stm_validation_aborts;
  eq "stm hw-owned aborts" r.stm_hw_owned_aborts stats.stm_hw_owned_aborts;
  eq "stm lock-subscription aborts" r.stm_locksub_aborts stats.stm_locksub_aborts;
  eq "stm validation cycles" r.stm_validation_cycles stats.stm_validation_cycles;
  eq "irrevocable entries" r.irrevocable_entries stats.irrevocable_entries;
  eq "lock acquires" r.lock_acquires stats.lock_acquires;
  eq "lock timeouts" r.lock_timeouts stats.lock_timeouts;
  eq "ALPs executed" r.alps_executed stats.alps_executed;
  eq "ALP lock attempts" r.alps_lock_attempts stats.alps_lock_attempts;
  eq "useful cycles" r.useful_cycles stats.useful_cycles;
  eq "wasted cycles" r.wasted_cycles stats.wasted_cycles;
  eq "backoff cycles" r.backoff_cycles stats.backoff_cycles;
  let attempts = r.useful_cycles + r.wasted_cycles + r.backoff_cycles in
  if stats.tx_mode_cycles < attempts then
    err t "tx_mode_cycles (%d) below useful+wasted+backoff (%d)" stats.tx_mode_cycles
      attempts;
  if stats.thread_cycles > 0 && stats.tx_mode_cycles > stats.thread_cycles then
    err t "tx_mode_cycles (%d) exceeds thread_cycles (%d)" stats.tx_mode_cycles
      stats.thread_cycles;
  Hashtbl.iter
    (fun id (tr : Stats.ab_stat) ->
      match Hashtbl.find_opt stats.per_ab id with
      | None -> err t "ab%d: seen in trace but absent from stats" id
      | Some st ->
        eq (Printf.sprintf "ab%d commits" id) tr.ab_commits st.ab_commits;
        eq (Printf.sprintf "ab%d aborts" id) tr.ab_aborts st.ab_aborts;
        eq (Printf.sprintf "ab%d locks" id) tr.ab_locks st.ab_locks;
        eq (Printf.sprintf "ab%d irrevocable" id) tr.ab_irrevocable st.ab_irrevocable)
    r.per_ab;
  Hashtbl.iter
    (fun id (st : Stats.ab_stat) ->
      if
        (not (Hashtbl.mem r.per_ab id))
        && st.ab_commits + st.ab_aborts + st.ab_locks + st.ab_irrevocable > 0
      then err t "ab%d: counted in stats but absent from trace" id)
    stats.per_ab;
  match List.rev !(t.errs) with [] -> Ok () | es -> Error es
