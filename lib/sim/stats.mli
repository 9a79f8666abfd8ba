(** Statistics gathered over one simulation run — the raw material for
    every table and figure of the paper's evaluation. *)

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
(** Per-policy-bundle tally, keyed by {!Stx_policy.label} in
    [per_policy]. A single run contributes one entry (its own bundle);
    {!merge} unions them so a sweep across policies can be ranked. *)

type t = {
  threads : int;
  mutable commits : int;
  mutable aborts : int;
  mutable conflict_aborts : int;
  mutable lock_sub_aborts : int;
  mutable explicit_aborts : int;
  mutable capacity_aborts : int;
      (** read/write-set budget exceeded (only under a [Bounded] capacity
          policy; always 0 at the paper's hardware point) *)
  mutable stm_conflict_aborts : int;
      (** hardware aborts inflicted by a concurrent software-tier commit
          publishing into the transaction's footprint (only under the
          [htm-stm-lock] fallback) *)
  mutable stm_commits : int;  (** software-tier commits (also in [commits]) *)
  mutable stm_aborts : int;  (** software-tier aborts (also in [aborts]) *)
  mutable stm_validation_aborts : int;
      (** software attempts failing read-set validation *)
  mutable stm_hw_owned_aborts : int;
      (** software commits deferring to a hardware-owned write line *)
  mutable stm_locksub_aborts : int;
      (** software commits refused because the global lock was held *)
  mutable stm_validation_cycles : int;
      (** memory latency spent probing version words (commit-time
          re-validation; also inside [useful_cycles]/[wasted_cycles]) *)
  mutable irrevocable_entries : int;  (** txns forced into irrevocable mode *)
  mutable useful_cycles : int;  (** cycles of committed attempts *)
  mutable wasted_cycles : int;  (** cycles of aborted attempts *)
  mutable tx_mode_cycles : int;  (** cycles with a transaction in flight *)
  mutable lock_wait_cycles : int;  (** spinning on advisory locks *)
  mutable backoff_cycles : int;
  mutable total_cycles : int;  (** makespan: max thread-local clock *)
  mutable thread_cycles : int;
      (** sum of final thread-local clocks — the %TM-time denominator,
          accumulated at run end and summed (not maxed) by {!merge} *)
  mutable lock_acquires : int;
  mutable lock_timeouts : int;
  mutable alps_executed : int;  (** dynamic ALP instructions *)
  mutable alps_lock_attempts : int;  (** ALPs that went for a lock *)
  mutable accuracy_hits : int;  (** runtime anchor id matched the oracle *)
  mutable accuracy_total : int;
  mutable precise : int;  (** policy decisions by kind *)
  mutable coarse : int;
  mutable promoted : int;
  mutable training : int;
  mutable insts : int;  (** instructions executed (µ-ops) *)
  mutable tx_insts : int;  (** instructions executed inside transactions *)
  mutable committed_tx_insts : int;
  conf_addr_freq : (int, int) Hashtbl.t;  (** conflicting line -> aborts *)
  conf_pc_freq : (int, int) Hashtbl.t;  (** conflicting PC tag -> aborts *)
  per_ab : (int, ab_stat) Hashtbl.t;  (** per-atomic-block breakdown *)
  per_policy : (string, pol_stat) Hashtbl.t;
      (** per-policy-bundle breakdown, keyed by policy label *)
}

val create : threads:int -> t

val aborts_per_commit : t -> float
val wasted_over_useful : t -> float
val pct_irrevocable : t -> float
(** Percentage of committed transactions that ran irrevocably. *)

val pct_tx_time : t -> float
(** [tx_mode_cycles] over [thread_cycles] (with a [total_cycles * threads]
    fallback for records that never ran a simulation). Stays ≤ 100% under
    {!merge}, because both sides of the ratio sum. *)

val accuracy : t -> float

val locality : ?top:int -> (int, int) Hashtbl.t -> float
(** Share of the [top] (default 1) most frequent keys among all
    occurrences (0 when empty) — the LA/LP columns of Table 1. *)

val ab : t -> int -> ab_stat
(** The (created-on-demand) per-atomic-block record. *)

val policy_tally : t -> string -> pol_stat
(** The (created-on-demand) per-policy record for a policy label. *)

val merge : t -> t -> t
(** Combine two runs' statistics into a fresh value (the runner's
    aggregation path): counters sum, frequency tables union by summing
    per-key counts, per-atomic-block records sum field-wise, and the
    makespan-like fields take the max — [total_cycles] because the shards
    of a partitioned run overlap in time, [threads] because it is a
    capacity, not a count. *)
