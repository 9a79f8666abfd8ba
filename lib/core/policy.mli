open Stx_compiler

(** The locking policy (Figure 6): on every contention abort, decide which
    advisory-locking point to activate for future instances of the atomic
    block, based on how often the conflicting PC and the conflicting data
    address recur in the recent history. Its {!params} hold every setting
    of the staggering runtime, the advisory-lock timeout and waiter cap
    included.

    Four outcomes: {e precise} (recurrent PC and address — lock exactly
    that datum), {e coarse grain} (recurrent PC, wandering addresses — lock
    whatever the anchor touches next time), {e locking promotion}
    (contention persists in coarse mode — move to the anchor's parent,
    typically the enclosing structure), and {e training} (no pattern
    yet). *)

type params = {
  pc_thr : int;  (** occurrences needed to call the PC recurrent (paper: 2) *)
  addr_thr : int;  (** likewise for the address (paper: 2) *)
  prom_thr : int;  (** consecutive retries before promotion *)
  probe_period : int;
      (** while an ALP stays active, every [probe_period]-th transaction
          runs without it as a speculation probe: a committing probe decays
          the evidence (the armed ALP deactivates once support is gone), an
          aborting probe re-affirms it. This extends the paper's
          empty-entry decay — which only fires on uncontended commits — to
          serialization that keeps its own lock busy; without it a
          low-contention workload can stay serialized forever. *)
  skip_read_only : bool;
      (** never activate ALPs for atomic blocks the compiler proved
          read-only: such transactions cannot abort anyone, so serializing
          them only trades their own (re-executable) work for latency. *)
  lock_timeout : int;
      (** cycles an ALP spins on a busy advisory lock before giving up and
          running speculatively (§2's progress guarantee) *)
  max_waiters : int;
      (** spinners allowed per advisory lock: an ALP finding a full queue
          proceeds speculatively, keeping the mechanism a stagger rather
          than a convoy *)
}

val default_params : params
(** The settings every experiment runs with unless it varies one; DESIGN.md
    lists their values. *)

type decision = Precise | Coarse | Promoted | Training

val activate :
  params ->
  Abcontext.t ->
  anchor:Unified.entry option ->
  conf_addr:int ->
  line:int ->
  retries:int ->
  decision
(** ActivateALPoint: [anchor] is the unified-table entry the abort was
    traced to (already resolved to an anchor through its pioneer); [line]
    is the conflicting cache-line index used for history counting;
    [retries] is the attempt count of the current transaction instance.
    Updates the context's activation and appends to the history. *)

val on_probe_commit : Abcontext.t -> unit
(** A speculation probe (an armed transaction deliberately run without its
    ALP) committed: after two consecutive successes the activation is
    dropped and the history cleared. *)

val on_commit_uncontended_lock : params -> Abcontext.t -> unit
(** A transaction committed while holding an advisory lock nobody else
    wanted: append an empty history entry so stale evidence decays, and
    deactivate the ALP once its supporting evidence has shifted out of the
    history (the paper's guard against over-locking, §5.2). *)

val resolve_anchor : Unified.table -> conf_pc:int option -> Unified.entry option
(** SearchByPC over the truncated conflicting PC, following non-anchor
    entries to their pioneer anchor. *)

val activate_tx_sched : params -> Abcontext.t -> line:int -> unit
(** Whole-transaction scheduling (the Tx_sched comparison mode): arm the
    atomic block's entry pseudo-ALP, wildcard, on abort density alone. *)

val activate_addr_only : params -> Abcontext.t -> conf_addr:int -> line:int -> unit
(** The "AddrOnly" comparison scheme (§6.2): a single fixed ALP at the top
    of the atomic block, precise mode only. *)
