type ab_stat = {
  mutable ab_commits : int;
  mutable ab_aborts : int;
  mutable ab_locks : int;
  mutable ab_irrevocable : int;
}

type pol_stat = {
  mutable p_commits : int;
  mutable p_aborts : int;
  mutable p_capacity : int;
  mutable p_irrevocable : int;
}

type t = {
  threads : int;
  mutable commits : int;
  mutable aborts : int;
  mutable conflict_aborts : int;
  mutable lock_sub_aborts : int;
  mutable explicit_aborts : int;
  mutable capacity_aborts : int;
  mutable stm_conflict_aborts : int;
      (* hardware aborts inflicted by a software-tier commit *)
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable stm_validation_aborts : int;
  mutable stm_hw_owned_aborts : int;
  mutable stm_locksub_aborts : int;
  mutable stm_validation_cycles : int;
  mutable irrevocable_entries : int;
  mutable useful_cycles : int;
  mutable wasted_cycles : int;
  mutable tx_mode_cycles : int;
  mutable lock_wait_cycles : int;
  mutable backoff_cycles : int;
  mutable total_cycles : int;
  mutable thread_cycles : int;
  mutable lock_acquires : int;
  mutable lock_timeouts : int;
  mutable alps_executed : int;
  mutable alps_lock_attempts : int;
  mutable accuracy_hits : int;
  mutable accuracy_total : int;
  mutable precise : int;
  mutable coarse : int;
  mutable promoted : int;
  mutable training : int;
  mutable insts : int;
  mutable tx_insts : int;
  mutable committed_tx_insts : int;
  conf_addr_freq : (int, int) Hashtbl.t;
  conf_pc_freq : (int, int) Hashtbl.t;
  per_ab : (int, ab_stat) Hashtbl.t;
  per_policy : (string, pol_stat) Hashtbl.t;
}

let create ~threads =
  {
    threads;
    commits = 0;
    aborts = 0;
    conflict_aborts = 0;
    lock_sub_aborts = 0;
    explicit_aborts = 0;
    capacity_aborts = 0;
    stm_conflict_aborts = 0;
    stm_commits = 0;
    stm_aborts = 0;
    stm_validation_aborts = 0;
    stm_hw_owned_aborts = 0;
    stm_locksub_aborts = 0;
    stm_validation_cycles = 0;
    irrevocable_entries = 0;
    useful_cycles = 0;
    wasted_cycles = 0;
    tx_mode_cycles = 0;
    lock_wait_cycles = 0;
    backoff_cycles = 0;
    total_cycles = 0;
    thread_cycles = 0;
    lock_acquires = 0;
    lock_timeouts = 0;
    alps_executed = 0;
    alps_lock_attempts = 0;
    accuracy_hits = 0;
    accuracy_total = 0;
    precise = 0;
    coarse = 0;
    promoted = 0;
    training = 0;
    insts = 0;
    tx_insts = 0;
    committed_tx_insts = 0;
    conf_addr_freq = Hashtbl.create 64;
    conf_pc_freq = Hashtbl.create 64;
    per_ab = Hashtbl.create 8;
    per_policy = Hashtbl.create 4;
  }

let aborts_per_commit t = Stx_util.Stat.ratio t.aborts t.commits
let wasted_over_useful t = Stx_util.Stat.ratio t.wasted_cycles t.useful_cycles
let pct_irrevocable t = Stx_util.Stat.percent t.irrevocable_entries t.commits
(* tx_mode_cycles aggregates across threads, so the denominator must too:
   thread_cycles (the sum of final thread-local clocks, accumulated at run
   end and summed by [merge]). Recomputing it as total_cycles * threads
   skews merged values — merge maxes both factors, so two sequential
   same-thread runs would divide a summed numerator by an un-summed
   denominator and report > 100%. The fallback covers hand-built records
   that never ran (test fixtures). *)
let pct_tx_time t =
  let denom =
    if t.thread_cycles > 0 then t.thread_cycles else t.total_cycles * t.threads
  in
  Stx_util.Stat.percent t.tx_mode_cycles denom
let accuracy t = Stx_util.Stat.percent t.accuracy_hits t.accuracy_total

let locality ?(top = 1) freq =
  let sum = List.fold_left (fun acc (_, c) -> acc + c) 0 in
  let ranked = Stx_util.Stat.ranked freq in
  Stx_util.Stat.ratio (sum (List.filteri (fun i _ -> i < top) ranked)) (sum ranked)

let ab t id =
  match Hashtbl.find t.per_ab id with
  | a -> a
  | exception Not_found ->
    let a = { ab_commits = 0; ab_aborts = 0; ab_locks = 0; ab_irrevocable = 0 } in
    Hashtbl.add t.per_ab id a;
    a

let policy_tally t label =
  match Hashtbl.find_opt t.per_policy label with
  | Some p -> p
  | None ->
    let p = { p_commits = 0; p_aborts = 0; p_capacity = 0; p_irrevocable = 0 } in
    Hashtbl.add t.per_policy label p;
    p

let merge a b =
  let m = create ~threads:(max a.threads b.threads) in
  m.commits <- a.commits + b.commits;
  m.aborts <- a.aborts + b.aborts;
  m.conflict_aborts <- a.conflict_aborts + b.conflict_aborts;
  m.lock_sub_aborts <- a.lock_sub_aborts + b.lock_sub_aborts;
  m.explicit_aborts <- a.explicit_aborts + b.explicit_aborts;
  m.capacity_aborts <- a.capacity_aborts + b.capacity_aborts;
  m.stm_conflict_aborts <- a.stm_conflict_aborts + b.stm_conflict_aborts;
  m.stm_commits <- a.stm_commits + b.stm_commits;
  m.stm_aborts <- a.stm_aborts + b.stm_aborts;
  m.stm_validation_aborts <- a.stm_validation_aborts + b.stm_validation_aborts;
  m.stm_hw_owned_aborts <- a.stm_hw_owned_aborts + b.stm_hw_owned_aborts;
  m.stm_locksub_aborts <- a.stm_locksub_aborts + b.stm_locksub_aborts;
  m.stm_validation_cycles <- a.stm_validation_cycles + b.stm_validation_cycles;
  m.irrevocable_entries <- a.irrevocable_entries + b.irrevocable_entries;
  m.useful_cycles <- a.useful_cycles + b.useful_cycles;
  m.wasted_cycles <- a.wasted_cycles + b.wasted_cycles;
  m.tx_mode_cycles <- a.tx_mode_cycles + b.tx_mode_cycles;
  m.lock_wait_cycles <- a.lock_wait_cycles + b.lock_wait_cycles;
  m.backoff_cycles <- a.backoff_cycles + b.backoff_cycles;
  (* total_cycles is a makespan, not a counter: concurrent shards overlap.
     thread_cycles is a counter: every thread's clock keeps ticking in its
     own run, so the %TM denominator sums. *)
  m.total_cycles <- max a.total_cycles b.total_cycles;
  m.thread_cycles <- a.thread_cycles + b.thread_cycles;
  m.lock_acquires <- a.lock_acquires + b.lock_acquires;
  m.lock_timeouts <- a.lock_timeouts + b.lock_timeouts;
  m.alps_executed <- a.alps_executed + b.alps_executed;
  m.alps_lock_attempts <- a.alps_lock_attempts + b.alps_lock_attempts;
  m.accuracy_hits <- a.accuracy_hits + b.accuracy_hits;
  m.accuracy_total <- a.accuracy_total + b.accuracy_total;
  m.precise <- a.precise + b.precise;
  m.coarse <- a.coarse + b.coarse;
  m.promoted <- a.promoted + b.promoted;
  m.training <- a.training + b.training;
  m.insts <- a.insts + b.insts;
  m.tx_insts <- a.tx_insts + b.tx_insts;
  m.committed_tx_insts <- a.committed_tx_insts + b.committed_tx_insts;
  let union = Stx_util.Stat.merge_into in
  union m.conf_addr_freq a.conf_addr_freq;
  union m.conf_addr_freq b.conf_addr_freq;
  union m.conf_pc_freq a.conf_pc_freq;
  union m.conf_pc_freq b.conf_pc_freq;
  let add_abs src =
    Hashtbl.iter
      (fun id (x : ab_stat) ->
        let d = ab m id in
        d.ab_commits <- d.ab_commits + x.ab_commits;
        d.ab_aborts <- d.ab_aborts + x.ab_aborts;
        d.ab_locks <- d.ab_locks + x.ab_locks;
        d.ab_irrevocable <- d.ab_irrevocable + x.ab_irrevocable)
      src
  in
  add_abs a.per_ab;
  add_abs b.per_ab;
  let add_pols src =
    Hashtbl.iter
      (fun label (x : pol_stat) ->
        let d = policy_tally m label in
        d.p_commits <- d.p_commits + x.p_commits;
        d.p_aborts <- d.p_aborts + x.p_aborts;
        d.p_capacity <- d.p_capacity + x.p_capacity;
        d.p_irrevocable <- d.p_irrevocable + x.p_irrevocable)
      src
  in
  add_pols a.per_policy;
  add_pols b.per_policy;
  m

let note_conflict t ~conf_line ~conf_pc =
  Stx_util.Stat.bump t.conf_addr_freq conf_line;
  match conf_pc with Some pc -> Stx_util.Stat.bump t.conf_pc_freq pc | None -> ()
