(** Machine configuration: the simulated hardware of Table 2 of the paper
    plus the cost constants of the simulation's timing model. *)

type t = {
  cores : int;  (** number of cores = number of worker threads (paper: 16) *)
  words_per_line : int;  (** cache line size in words (64 B = 8 words) *)
  l1_lines : int;  (** private L1 data capacity in lines (64 KB) *)
  l1_ways : int;
  l1_latency : int;  (** cycles (paper: 2) *)
  l2_lines : int;  (** private L2 capacity in lines (1 MB) *)
  l2_ways : int;
  l2_latency : int;  (** cycles (paper: 10) *)
  l3_lines : int;  (** shared L3 capacity in lines (8 MB) *)
  l3_ways : int;
  l3_latency : int;  (** cycles (paper: 30) *)
  mem_latency : int;  (** cycles (50 ns at 2.5 GHz = 125) *)
  pc_tag_bits : int;  (** width of the per-line conflicting-PC tag (12) *)
  commit_cost : int;  (** cycles charged at transaction commit *)
  abort_cost : int;  (** cycles charged to roll back an aborted txn *)
  handler_cost : int;  (** cycles charged to run the abort handler/policy *)
  alp_inactive_cost : int;  (** an inactive ALP: a test and a non-taken branch *)
  spin_recheck_cost : int;  (** cycles between advisory-lock spin re-checks *)
  backoff_base : int;  (** mean polite-backoff delay per retry, cycles *)
  lazy_htm : bool;
      (** commit-time (lazy) conflict detection with committer-wins,
          instead of the default eager requester-wins — the paper's §8
          future-work variant. Advisory locks work unchanged on both. *)
}

val default : t
(** The Table 2 machine: 16 cores, 64 KB L1 / 1 MB L2 / 8 MB L3,
    2/10/30/125-cycle latencies, 12-bit PC tags. *)

val with_cores : int -> t -> t

val pp : Format.formatter -> t -> unit
(** Render the configuration as the Table 2 reproduction. *)
