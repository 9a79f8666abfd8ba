open Stx_sim

(* Metric names. One source of truth: the collector writes them, the
   profile/bench readers and the reconciliation checker read them. *)

let m_latency = "stx_tx_latency_cycles"
let m_retries = "stx_tx_retries"
let m_rset = "stx_rset_lines"
let m_wset = "stx_wset_lines"
let m_lock_wait = "stx_lock_wait_cycles"
let m_backoff = "stx_backoff_cycles"
let m_irrevocable = "stx_irrevocable_cycles"
let m_phase = "stx_phase_cycles"
let m_commits = "stx_commits"
let m_aborts = "stx_aborts"
let m_irrevocable_entries = "stx_irrevocable_entries"
let m_lock_attempts = "stx_lock_attempts"
let m_lock_acquires = "stx_lock_acquires"
let m_lock_timeouts = "stx_lock_timeouts"
let m_alps_executed = "stx_alps_executed"
let m_alps_fired = "stx_alps_fired"
let m_stm_commits = "stx_stm_commits"
let m_stm_aborts = "stx_stm_aborts"
let m_stm_vcycles = "stx_stm_validation_cycles"

let outcome_commit = [ ("outcome", "commit") ]
let outcome_abort = [ ("outcome", "abort") ]

let kind_label = function
  | Machine.Conflict -> "conflict"
  | Machine.Lock_subscription -> "lock_subscription"
  | Machine.Capacity -> "capacity"
  | Machine.Explicit -> "explicit"
  | Machine.Stm_conflict -> "stm_conflict"

let stm_kind_label = function
  | Machine.Stm_validation -> "stm_validation"
  | Machine.Stm_hw_owned -> "stm_hw_owned"
  | Machine.Stm_locksub -> "stm_lock_subscription"
  | Machine.Stm_explicit -> "stm_explicit"

type phase = Prefix | Lock_wait | Suffix | Irrevocable | Stm | Backoff | Wasted

let phases = [ Prefix; Lock_wait; Suffix; Irrevocable; Stm; Backoff; Wasted ]

let phase_label = function
  | Prefix -> "prefix"
  | Lock_wait -> "lock_wait"
  | Suffix -> "suffix"
  | Irrevocable -> "irrevocable"
  | Stm -> "stm"
  | Backoff -> "backoff"
  | Wasted -> "wasted"

let phase_labels ~ab p =
  [ ("ab", string_of_int ab); ("phase", phase_label p) ]

(* --- the per-thread replay state machine ------------------------------ *)

(* One in-flight hardware or irrevocable attempt, as reconstructed from
   the stream. Timestamps are the emitting thread's local clock. *)
type attempt = {
  at_ab : int;
  at_attempt : int;
  mutable at_first_acquire : int option;  (* first advisory-lock acquire *)
  mutable at_wait_since : int option;  (* open Lock_waiting episode *)
  mutable at_wait : int;  (* completed episode cycles this attempt *)
}

type tstate = {
  mutable cur : attempt option;
  mutable backoff_since : int option;
  mutable cur_ab : int;  (* for attributing backoff between attempts *)
}

type t = {
  reg : Registry.t;
  threads : (int, tstate) Hashtbl.t;
  pol : (string * string) list;
      (* the policy label, appended to every series this collector writes *)
}

let create ?(policy = Stx_policy.default) () =
  {
    reg = Registry.create ();
    threads = Hashtbl.create 16;
    pol = [ ("policy", Stx_policy.label policy) ];
  }

let registry t = t.reg

let tstate t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
    let st = { cur = None; backoff_since = None; cur_ab = 0 } in
    Hashtbl.add t.threads tid st;
    st

let add_phase t ~ab p c =
  if c > 0 then Registry.inc t.reg ~by:c m_phase (phase_labels ~ab p @ t.pol)

(* close an open wait episode, returning its span *)
let end_wait a ~time =
  match a.at_wait_since with
  | None -> None
  | Some t0 ->
    a.at_wait_since <- None;
    let d = time - t0 in
    a.at_wait <- a.at_wait + d;
    Some d

let handler t ~time ev =
  (* every series carries the collector's policy label *)
  let inc ?by name labels = Registry.inc t.reg ?by name (labels @ t.pol) in
  let observe name labels v = Registry.observe t.reg name (labels @ t.pol) v in
  match (ev : Machine.event) with
  | Machine.Tx_begin { tid; ab; attempt; probe = _ } ->
    let st = tstate t tid in
    st.cur <-
      Some
        {
          at_ab = ab;
          at_attempt = attempt;
          at_first_acquire = None;
          at_wait_since = None;
          at_wait = 0;
        };
    st.cur_ab <- ab
  | Machine.Lock_waiting { tid; lock = _ } -> (
    let st = tstate t tid in
    match st.cur with Some a -> a.at_wait_since <- Some time | None -> ())
  | Machine.Lock_acquired { tid; lock = _; line = _ } -> (
    inc m_lock_acquires [];
    let st = tstate t tid in
    match st.cur with
    | Some a ->
      (match end_wait a ~time with
      | Some d -> observe m_lock_wait [ ("outcome", "acquired") ] d
      | None -> ());
      if a.at_first_acquire = None then a.at_first_acquire <- Some time
    | None -> ())
  | Machine.Lock_timeout { tid; lock = _ } -> (
    inc m_lock_timeouts [];
    let st = tstate t tid in
    match st.cur with
    | Some a -> (
      match end_wait a ~time with
      | Some d -> observe m_lock_wait [ ("outcome", "timeout") ] d
      | None -> ())
    | None -> ())
  | Machine.Lock_attempt _ -> inc m_lock_attempts []
  | Machine.Lock_released _ -> ()
  | Machine.Tx_commit { tid; ab; cycles; irrevocable; rset; wset; probe = _ } ->
    inc m_commits [];
    observe m_latency outcome_commit cycles;
    observe m_rset outcome_commit rset;
    observe m_wset outcome_commit wset;
    let st = tstate t tid in
    (match st.cur with
    | Some a ->
      observe m_retries [] a.at_attempt;
      if irrevocable then begin
        observe m_irrevocable [] cycles;
        add_phase t ~ab Irrevocable cycles
      end
      else begin
        (* a commit cannot be reached mid-spin, but fold a dangling
           episode in rather than lose the cycles *)
        ignore (end_wait a ~time);
        let suffix =
          match a.at_first_acquire with Some acq -> time - acq | None -> 0
        in
        let prefix = cycles - a.at_wait - suffix in
        add_phase t ~ab Prefix prefix;
        add_phase t ~ab Lock_wait a.at_wait;
        add_phase t ~ab Suffix suffix
      end
    | None ->
      (* commit without a begin: degraded stream; count everything as
         prefix so the cycle identities still hold *)
      observe m_retries [] 0;
      add_phase t ~ab (if irrevocable then Irrevocable else Prefix) cycles);
    st.cur <- None
  | Machine.Tx_abort
      { tid; ab; kind; cycles; rset; wset; conf_line = _; conf_pc = _;
        aggressor = _; probe = _ } ->
    inc m_aborts [ ("kind", kind_label kind) ];
    observe m_latency outcome_abort cycles;
    observe m_rset outcome_abort rset;
    observe m_wset outcome_abort wset;
    add_phase t ~ab Wasted cycles;
    let st = tstate t tid in
    (match st.cur with
    | Some a -> (
      (* an abort lands mid-spin when the victim was doomed while
         queued; the episode's tail (plus abort costs charged before
         emission) is already inside the wasted cycles *)
      match end_wait a ~time with
      | Some d -> observe m_lock_wait [ ("outcome", "aborted") ] d
      | None -> ())
    | None -> ());
    st.cur <- None;
    st.cur_ab <- ab
  | Machine.Tx_irrevocable { tid; ab } ->
    inc m_irrevocable_entries [];
    (tstate t tid).cur_ab <- ab
  | Machine.Alp_executed { fired; _ } ->
    inc m_alps_executed [];
    if fired then inc m_alps_fired []
  | Machine.Backoff_start { tid } -> (tstate t tid).backoff_since <- Some time
  | Machine.Backoff_end { tid } -> (
    let st = tstate t tid in
    match st.backoff_since with
    | Some t0 ->
      st.backoff_since <- None;
      let d = time - t0 in
      observe m_backoff [] d;
      add_phase t ~ab:st.cur_ab Backoff d
    | None -> ())
  | Machine.Req_dispatch _ | Machine.Req_done _ ->
    (* request lifecycle is the serving harness's plane (Stx_serve); the
       transaction-level registry ignores it so serve and closed-loop
       runs of one workload stay directly comparable *)
    ()
  | Machine.Stm_begin { tid; ab; attempt } ->
    let st = tstate t tid in
    st.cur <-
      Some
        {
          at_ab = ab;
          at_attempt = attempt;
          at_first_acquire = None;
          at_wait_since = None;
          at_wait = 0;
        };
    st.cur_ab <- ab
  | Machine.Stm_commit { tid; ab; cycles; vcycles; rset; wset } ->
    inc m_commits [];
    inc m_stm_commits [];
    if vcycles > 0 then inc ~by:vcycles m_stm_vcycles [];
    observe m_latency outcome_commit cycles;
    observe m_rset outcome_commit rset;
    observe m_wset outcome_commit wset;
    let st = tstate t tid in
    (match st.cur with
    | Some a -> observe m_retries [] a.at_attempt
    | None -> observe m_retries [] 0);
    (* the whole software attempt is one phase: its validation traffic is
       reported through m_stm_vcycles, not a phase split *)
    add_phase t ~ab Stm cycles;
    st.cur <- None
  | Machine.Stm_abort { tid; ab; kind; cycles; vcycles; rset; wset } ->
    inc m_aborts [ ("kind", stm_kind_label kind) ];
    inc m_stm_aborts [ ("kind", stm_kind_label kind) ];
    if vcycles > 0 then inc ~by:vcycles m_stm_vcycles [];
    observe m_latency outcome_abort cycles;
    observe m_rset outcome_abort rset;
    observe m_wset outcome_abort wset;
    add_phase t ~ab Wasted cycles;
    let st = tstate t tid in
    st.cur <- None;
    st.cur_ab <- ab

let of_trace ?policy tr =
  let t = create ?policy () in
  Stx_trace.Trace.iter tr (fun ~time ev -> handler t ~time ev);
  t.reg

(* --- phase readout ---------------------------------------------------- *)

(* Readers match by label subset: a series written with the policy label
   (or any future dimension) still satisfies a query that does not name
   it, so profile/bench/check work unchanged across policy bundles — and
   sum across bundles when a merged registry holds several. *)

let label_subset sub super =
  List.for_all (fun (k, v) -> List.assoc_opt k super = Some v) sub

let counter_sum reg name labels =
  Registry.fold
    (fun n ls v acc ->
      match v with
      | Registry.Counter c when n = name && label_subset labels ls -> acc + c
      | _ -> acc)
    reg 0

let histogram reg name labels =
  Registry.fold
    (fun n ls v acc ->
      match v with
      | Registry.Histogram h when n = name && label_subset labels ls -> Hist.merge acc h
      | _ -> acc)
    reg (Hist.create ())

let phase_cycles reg ~ab p = counter_sum reg m_phase (phase_labels ~ab p)

let abs_profiled reg =
  Registry.fold
    (fun name labels _ acc ->
      if name = m_phase then
        match List.assoc_opt "ab" labels with
        | Some s -> ( match int_of_string_opt s with Some ab -> ab :: acc | None -> acc)
        | None -> acc
      else acc)
    reg []
  |> List.sort_uniq compare

let phase_total reg p =
  List.fold_left (fun acc ab -> acc + phase_cycles reg ~ab p) 0 (abs_profiled reg)

(* --- reconciliation against the inline counters ----------------------- *)

let hist_stats reg name labels =
  let h = histogram reg name labels in
  (Hist.count h, Hist.sum h)

let check reg (stats : Stats.t) =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let eq what got want =
    if got <> want then note "%s: registry %d vs stats %d" what got want
  in
  let counter name labels = counter_sum reg name labels in
  eq "commits" (counter m_commits []) stats.Stats.commits;
  eq "conflict aborts" (counter m_aborts [ ("kind", "conflict") ])
    stats.Stats.conflict_aborts;
  eq "lock-subscription aborts"
    (counter m_aborts [ ("kind", "lock_subscription") ])
    stats.Stats.lock_sub_aborts;
  eq "capacity aborts" (counter m_aborts [ ("kind", "capacity") ])
    stats.Stats.capacity_aborts;
  eq "explicit aborts" (counter m_aborts [ ("kind", "explicit") ])
    stats.Stats.explicit_aborts;
  eq "stm-conflict aborts" (counter m_aborts [ ("kind", "stm_conflict") ])
    stats.Stats.stm_conflict_aborts;
  eq "stm commits" (counter m_stm_commits []) stats.Stats.stm_commits;
  eq "stm aborts" (counter m_stm_aborts []) stats.Stats.stm_aborts;
  eq "stm validation aborts"
    (counter m_stm_aborts [ ("kind", "stm_validation") ])
    stats.Stats.stm_validation_aborts;
  eq "stm hw-owned aborts"
    (counter m_stm_aborts [ ("kind", "stm_hw_owned") ])
    stats.Stats.stm_hw_owned_aborts;
  eq "stm lock-subscription aborts"
    (counter m_stm_aborts [ ("kind", "stm_lock_subscription") ])
    stats.Stats.stm_locksub_aborts;
  eq "stm validation cycles" (counter m_stm_vcycles [])
    stats.Stats.stm_validation_cycles;
  eq "irrevocable entries" (counter m_irrevocable_entries [])
    stats.Stats.irrevocable_entries;
  eq "lock attempts" (counter m_lock_attempts []) stats.Stats.alps_lock_attempts;
  eq "lock acquires" (counter m_lock_acquires []) stats.Stats.lock_acquires;
  eq "lock timeouts" (counter m_lock_timeouts []) stats.Stats.lock_timeouts;
  eq "alps executed" (counter m_alps_executed []) stats.Stats.alps_executed;
  let cc, cs = hist_stats reg m_latency outcome_commit in
  eq "commit-latency count" cc stats.Stats.commits;
  eq "commit-latency sum = useful_cycles" cs stats.Stats.useful_cycles;
  let ac, asum = hist_stats reg m_latency outcome_abort in
  eq "abort-latency count" ac stats.Stats.aborts;
  eq "abort-latency sum = wasted_cycles" asum stats.Stats.wasted_cycles;
  let rc, _ = hist_stats reg m_retries [] in
  eq "retries observations" rc stats.Stats.commits;
  let rsc, _ = hist_stats reg m_rset outcome_commit in
  let wsc, _ = hist_stats reg m_wset outcome_commit in
  eq "committed read-set observations" rsc stats.Stats.commits;
  eq "committed write-set observations" wsc stats.Stats.commits;
  let rsa, _ = hist_stats reg m_rset outcome_abort in
  let wsa, _ = hist_stats reg m_wset outcome_abort in
  eq "aborted read-set observations" rsa stats.Stats.aborts;
  eq "aborted write-set observations" wsa stats.Stats.aborts;
  let _, bsum = hist_stats reg m_backoff [] in
  eq "backoff sum = backoff_cycles" bsum stats.Stats.backoff_cycles;
  let ic, _ = hist_stats reg m_irrevocable [] in
  let irrevocable_commits =
    Hashtbl.fold
      (fun _ ab acc -> acc + ab.Stats.ab_irrevocable)
      stats.Stats.per_ab 0
  in
  eq "irrevocable-duration count" ic irrevocable_commits;
  eq "phase useful identity"
    (phase_total reg Prefix + phase_total reg Lock_wait + phase_total reg Suffix
   + phase_total reg Irrevocable + phase_total reg Stm)
    stats.Stats.useful_cycles;
  eq "phase wasted identity" (phase_total reg Wasted) stats.Stats.wasted_cycles;
  eq "phase backoff identity" (phase_total reg Backoff) stats.Stats.backoff_cycles;
  let _, wa = hist_stats reg m_lock_wait [ ("outcome", "acquired") ] in
  let _, wt = hist_stats reg m_lock_wait [ ("outcome", "timeout") ] in
  (* abort-terminated episodes fold their spin tail into the abort path,
     and irrevocable entry spins on the global lock with no per-episode
     events, so the tracked episodes can only undercount *)
  if wa + wt > stats.Stats.lock_wait_cycles then
    note "tracked lock-wait episodes (%d) exceed stats.lock_wait_cycles (%d)"
      (wa + wt) stats.Stats.lock_wait_cycles;
  match !errs with [] -> Ok () | errs -> Error (List.rev errs)
