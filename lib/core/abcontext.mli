open Stx_compiler

(** Per-thread, per-atomic-block runtime context (Figure 4 of the paper).

    Holds the currently active advisory-locking point, the probable
    conflicting address, the recent abort history, and a pointer to the
    atomic block's unified anchor table. *)

val no_site : int
(** Sentinel: no active ALP. *)

val entry_site : int
(** Pseudo ALP site at the very beginning of the atomic block, used by the
    AddrOnly configuration. *)

type record = {
  r_anchor : int option;  (** ue_id of the identified anchor, if any *)
  r_addr : int option;  (** conflicting cache-line index, if any *)
}

type t = {
  ab : int;
  table : Unified.table;
  mutable armed_site : int;
      (** the ALP the policy has activated for this atomic block; persists
          across transactions until the policy changes it *)
  mutable armed_anchor : int option;
      (** ue_id whose recurrence justified the arming (for decay) *)
  mutable armed_line : int option;
      (** conflicting line that justified an AddrOnly arming *)
  mutable active_site : int;
      (** the ALP that may still fire in the {e current} transaction:
          restored from [armed_site] at transaction begin, cleared once a
          lock is acquired ("to avoid additional locking attempts within
          the current transaction", Figure 5) *)
  mutable block_addr : int;  (** expected conflict address; 0 = wild card *)
  history : record option array;  (** abort-history ring *)
  mutable hist_len : int;
  mutable hist_pos : int;
  mutable tx_counter : int;  (** transactions begun (drives probing) *)
  mutable probe_streak : int;  (** consecutive successful speculation probes *)
}

val create : ab:int -> Unified.table -> t
(** An abort history of 8 records, as in the paper. *)

val arm : t -> ?anchor:int -> ?line:int -> site:int -> block_addr:int -> unit -> unit
(** Policy decision: activate ALP [site] for future instances; [anchor] /
    [line] record the evidence so decay can tell when support is gone. *)

val disarm : t -> unit
(** Back to training: no ALP fires. *)

val clear_history : t -> unit
(** Forget all evidence (used when a decayed activation is dropped, so that
    re-arming requires a fresh burst of aborts rather than one). *)

val on_tx_begin : t -> unit
(** Restore the per-transaction activation from the armed state. *)

val probe_due : t -> period:int -> bool
(** Count a transaction; true when this one should run as a speculation
    probe (armed, and the counter hits the period). *)

val append : t -> record option -> unit
(** Push a record (or an empty decay entry) into the ring. *)

val count_addr : t -> int -> int
(** Occurrences of a conflicting line in the history. *)

val count_anchor : t -> int -> int
(** Occurrences of an anchor (by ue_id) in the history. *)

val abort_density : t -> int
(** Abort records currently in the history — how saturated recent
    transactions were with conflicts. *)

val consume_active : t -> site:int -> bool
(** True when [site] is the active ALP; clears the activation so a
    transaction acquires at most one advisory lock (§2). *)

val address_matched : t -> words_per_line:int -> addr:int -> bool
(** `IsAddressMatched`: wild card, or same cache line as [block_addr]. *)
