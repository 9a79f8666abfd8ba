open Stx_sim

(* Metric names. One source of truth: the collector writes them, the
   profile and benchmark readers and the reconciliation checker read
   them. *)

let m_latency = "stx_tx_latency_cycles"
let m_retries = "stx_tx_retries"
let m_rset = "stx_rset_lines"
let m_wset = "stx_wset_lines"
let m_lock_wait = "stx_lock_wait_cycles"
let m_backoff = "stx_backoff_cycles"
let m_irrevocable = "stx_irrevocable_cycles"
let m_phase = "stx_phase_cycles"
let m_alps_fired = "stx_alps_fired"

let outcome_commit = [ ("outcome", "commit") ]
let outcome_abort = [ ("outcome", "abort") ]

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

(* A phase's slot in a block's row: its place in [phases], kept total by
   an exhaustive match. *)
let phase_slot = function
  | Prefix -> 0
  | Lock_wait -> 1
  | Suffix -> 2
  | Irrevocable -> 3
  | Stm -> 4
  | Backoff -> 5
  | Wasted -> 6

(* --- the fold --------------------------------------------------------- *)

(* The series an attempt's close writes, under one outcome label. *)
type outcome = { latency : Registry.hist; rset : Registry.hist; wset : Registry.hist }

(* [sink] is what the span callback writes to: every series this
   collector writes, resolved against [reg] once, with the policy label
   in its key. Phase rows are resolved when their block first appears;
   every handle creates its series at its first write. The per-thread
   bracket state lives in the Lifecycle fold. *)
type sink = {
  reg : Registry.t;
  pol : Registry.labels;
  alps_fired : Registry.counter;
  committed : outcome;
  aborted : outcome;
  retries : Registry.hist;
  irrevocable : Registry.hist;
  backoff : Registry.hist;
  wait_acquired : Registry.hist;
  wait_timeout : Registry.hist;
  wait_aborted : Registry.hist;
  mutable phase : Registry.counter array array;
      (* by atomic block, then [phase_slot]; [||] until the block appears *)
}

type t = { sink : sink; lc : Stx_trace.Lifecycle.t }

let sink reg pol =
  let counter name labels = Registry.counter reg name (labels @ pol) in
  let hist name labels = Registry.hist reg name (labels @ pol) in
  let outcome labels =
    { latency = hist m_latency labels; rset = hist m_rset labels; wset = hist m_wset labels }
  in
  {
    reg;
    pol;
    alps_fired = counter m_alps_fired [];
    committed = outcome outcome_commit;
    aborted = outcome outcome_abort;
    retries = hist m_retries [];
    irrevocable = hist m_irrevocable [];
    backoff = hist m_backoff [];
    wait_acquired = hist m_lock_wait [ ("outcome", "acquired") ];
    wait_timeout = hist m_lock_wait [ ("outcome", "timeout") ];
    wait_aborted = hist m_lock_wait [ ("outcome", "aborted") ];
    phase = [||];
  }

let phase_row k ab =
  if ab < 0 then invalid_arg "Collect: negative atomic block id";
  let n = Array.length k.phase in
  if ab >= n then begin
    let grown = Array.make (max (ab + 1) (2 * n)) [||] in
    Array.blit k.phase 0 grown 0 n;
    k.phase <- grown
  end;
  match k.phase.(ab) with
  | [||] ->
    let row =
      Array.of_list
        (List.map
           (fun p -> Registry.counter k.reg m_phase (phase_labels ~ab p @ k.pol))
           phases)
    in
    k.phase.(ab) <- row;
    row
  | row -> row

let add_phase k ~ab p c = if c > 0 then Registry.add (phase_row k ab).(phase_slot p) c

let close o ~cycles ~rset ~wset =
  Registry.record o.latency cycles;
  Registry.record o.rset rset;
  Registry.record o.wset wset

(* A committed hardware attempt splits into the speculative prefix, the
   advisory-lock waits inside it and the serialized suffix from its first
   acquire; an irrevocable or software commit is one phase. *)
let on_span k (s : Stx_trace.Lifecycle.span) (ev : Machine.event) =
  match (s.kind, ev) with
  | Attempt, Tx_commit { ab; cycles; irrevocable; _ } ->
    Registry.record k.retries s.attempt;
    if irrevocable then begin
      Registry.record k.irrevocable cycles;
      add_phase k ~ab Irrevocable cycles
    end
    else begin
      let suffix = if s.first_acquire >= 0 then s.stop - s.first_acquire else 0 in
      add_phase k ~ab Prefix (cycles - s.waited - suffix);
      add_phase k ~ab Lock_wait s.waited;
      add_phase k ~ab Suffix suffix
    end
  | Attempt, Stm_commit { ab; cycles; _ } ->
    (* its validation traffic is reported through m_stm_vcycles, not a
       phase split *)
    Registry.record k.retries s.attempt;
    add_phase k ~ab Stm cycles
  | Wait, Lock_acquired _ -> Registry.record k.wait_acquired (s.stop - s.start)
  | Wait, Lock_timeout _ -> Registry.record k.wait_timeout (s.stop - s.start)
  | Wait, _ ->
    (* a waiter doomed while queued: the episode's tail (plus abort costs
       charged before emission) is already inside the wasted cycles *)
    Registry.record k.wait_aborted (s.stop - s.start)
  | Backoff, _ ->
    let d = s.stop - s.start in
    Registry.record k.backoff d;
    add_phase k ~ab:s.ab Backoff d
  | (Attempt | Hold | Request), _ -> ()

let create ?(policy = Stx_policy.default) () =
  let sink = sink (Registry.create ()) [ ("policy", Stx_policy.label policy) ] in
  { sink; lc = Stx_trace.Lifecycle.create ~on_span:(on_span sink) () }

let registry t = t.sink.reg

let handler t ~time ev =
  Stx_trace.Lifecycle.step t.lc ~time ev;
  let k = t.sink in
  match (ev : Machine.event) with
  | Tx_commit { cycles; rset; wset; _ } | Stm_commit { cycles; rset; wset; _ } ->
    close k.committed ~cycles ~rset ~wset
  | Tx_abort { ab; cycles; rset; wset; _ } | Stm_abort { ab; cycles; rset; wset; _ } ->
    close k.aborted ~cycles ~rset ~wset;
    add_phase k ~ab Wasted cycles
  | Alp_executed { fired; _ } -> if fired then Registry.add k.alps_fired 1
  | Tx_begin _ | Stm_begin _ | Tx_irrevocable _ | Lock_attempt _ | Lock_acquired _
  | Lock_released _ | Lock_waiting _ | Lock_timeout _ | Backoff_start _ | Backoff_end _
  | Req_dispatch _ | Req_done _ ->
    (* brackets (the fold above pairs them) and events [Stats] counts
       (written by [export]); the request lifecycle is the serving
       harness's plane (Stx_serve), ignored here so serve and closed-loop
       runs of one workload stay directly comparable *)
    ()

(* --- the counters [Stats] holds, written at export -------------------- *)

(* Software aborts count under both [stx_aborts] and [stx_stm_aborts];
   [Stats] keeps no field for explicit ones, so they are the rest. *)
let stats_series (s : Stats.t) =
  let hw k v = ("stx_aborts", [ ("kind", Machine.abort_label k) ], v) in
  let sw k v =
    let kind = [ ("kind", Machine.stm_abort_label k) ] in
    [ ("stx_aborts", kind, v); ("stx_stm_aborts", kind, v) ]
  in
  [ ("stx_commits", [], s.commits); hw Conflict s.conflict_aborts;
    hw Lock_subscription s.lock_sub_aborts; hw Capacity s.capacity_aborts;
    hw Explicit s.explicit_aborts; hw Stm_conflict s.stm_conflict_aborts;
    ("stx_stm_commits", [], s.stm_commits);
    ("stx_stm_validation_cycles", [], s.stm_validation_cycles);
    ("stx_irrevocable_entries", [], s.irrevocable_entries);
    ("stx_alps_executed", [], s.alps_executed);
    ("stx_lock_attempts", [], s.alps_lock_attempts);
    ("stx_lock_acquires", [], s.lock_acquires); ("stx_lock_timeouts", [], s.lock_timeouts) ]
  @ sw Stm_validation s.stm_validation_aborts
  @ sw Stm_hw_owned s.stm_hw_owned_aborts
  @ sw Stm_locksub s.stm_locksub_aborts
  @ sw Stm_explicit
      (s.stm_aborts - s.stm_validation_aborts - s.stm_hw_owned_aborts - s.stm_locksub_aborts)

let export t s =
  let reg = Registry.merge t.sink.reg (Registry.create ()) in
  List.iter
    (fun (name, labels, v) -> if v > 0 then Registry.inc reg ~by:v name (labels @ t.sink.pol))
    (stats_series s);
  reg

let of_trace ?policy tr =
  let t = create ?policy () in
  Stx_trace.Trace.iter tr (fun ~time ev -> handler t ~time ev);
  registry t

(* --- phase readout ---------------------------------------------------- *)

(* Readers match by label subset: a series written with the policy label
   (or any future dimension) still satisfies a query that does not name
   it, so the profile and check work unchanged across policy bundles — and
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
