open Stx_sim

(** The metrics collector: folds the {!Stx_sim.Machine} event stream into
    a {!Registry}. Attempt, lock-wait and backoff intervals come from the
    {!Stx_trace.Lifecycle} bracket fold; the collector keeps no
    per-thread state of its own.

    The same fold runs in two places — online, composed onto a live run's
    [on_event] hook, and offline, replaying a full {!Stx_trace.Trace}
    capture ({!of_trace}). Because both paths execute this one fold over
    the same stream, the two registries must be {b equal}, and {!check}
    reconciles either against the run's [Stats]. What [Stats] already
    counts, the collector does not: {!export} writes it.

    {2 Metrics populated}

    Histograms (cycle values unless noted):
    - [stx_tx_latency_cycles{outcome=commit|abort}] — per-attempt latency
    - [stx_tx_retries{}] — aborted attempts preceding each commit
    - [stx_rset_lines{outcome=...}], [stx_wset_lines{outcome=...}] —
      read/write-set size (cache lines) when the attempt ended
    - [stx_lock_wait_cycles{outcome=acquired|timeout|aborted}] — advisory
      lock wait episodes (only episodes that actually spun)
    - [stx_backoff_cycles{}] — per-backoff delay
    - [stx_irrevocable_cycles{}] — latency of irrevocable commits

    Phase counters, the per-atomic-block profile:
    [stx_phase_cycles{ab=N,phase=P}] with [P] one of
    - [prefix] — speculative cycles before the first advisory-lock
      acquire (the whole attempt, for lock-free commits)
    - [lock_wait] — spinning on advisory locks inside committed attempts
    - [suffix] — serialized cycles from first acquire to commit
    - [irrevocable] — committed cycles under the global lock
    - [stm] — committed software-tier attempts ([htm-stm-lock] fallback;
      one undivided phase — their version-word traffic is reported by the
      [stx_stm_validation_cycles] counter instead)
    - [backoff] — inter-attempt polite backoff
    - [wasted] — cycles of aborted attempts (either tier)

    Counters: [stx_alps_fired] (ALPs that went for a lock); and, written
    by {!export} from [Stats], [stx_commits], [stx_aborts{kind=...}],
    [stx_irrevocable_entries], [stx_lock_attempts], [stx_lock_acquires],
    [stx_lock_timeouts], [stx_alps_executed], [stx_stm_commits],
    [stx_stm_aborts{kind=...}] (kinds [stm_validation], [stm_hw_owned],
    [stm_lock_subscription], [stm_explicit], also counted under
    [stx_aborts]) and [stx_stm_validation_cycles]. Software commits and
    aborts also feed [stx_commits], [stx_tx_latency_cycles], the set-size
    histograms and [stx_tx_retries], matching the [Stats] convention that
    the global commit/abort counters include the software tier.

    Every series additionally carries [policy=<label>], the
    {!Stx_policy.label} of the bundle the run executed under. The readers
    below ({!phase_cycles}, {!phase_total}, {!check}) match series by
    label {e subset}, so they read a single-policy registry transparently
    and sum across bundles in a merged one. *)

type t

val create : ?policy:Stx_policy.t -> unit -> t
(** [policy] (default {!Stx_policy.default}) is stamped as the [policy]
    label on every series; pass the bundle the machine runs under.
    Every series the handler writes is resolved here into a {!Registry}
    handle the collector owns (an atomic block's seven phase counters
    when the block first appears), so the handler builds, sorts and
    hashes no label key per event. A handle creates its series at its first
    write, so the registry holds exactly the series the stream wrote. *)

val handler : t -> time:int -> Machine.event -> unit
(** Shaped like [Machine.run]'s [?on_event], same as [Trace.handler].
    Raises [Invalid_argument] when an event would attribute phase cycles
    to a negative atomic block id. *)

val registry : t -> Registry.t
(** The registry being populated, live: the handles write into it, so
    it reflects every event handled so far (callers must not mutate
    it). It holds no series {!export} writes from [Stats]. *)

val export : t -> Stats.t -> Registry.t
(** A fresh copy of {!registry} plus the counters above that [Stats]
    holds, read from the observed run's [stats] under the collector's
    [policy] label, each only when non-zero (as the stream writes a
    series only once it occurs). {!Stx_trace.Check} reconciles those
    counts with the stream. *)

val of_trace : ?policy:Stx_policy.t -> Stx_trace.Trace.t -> Registry.t
(** Replay a full capture through a fresh collector. Pass the same
    [policy] as the run that produced the trace for registries that
    compare equal to the online collector's. *)

val check : Registry.t -> Stats.t -> (unit, string list) result
(** Reconcile a registry's histograms and phase profile against the
    run's inline counters. Exact: commit-latency count = commits and sum
    = [useful_cycles], abort-latency count = aborts and sum =
    [wasted_cycles], set-size observations per outcome, retries
    observations = commits, irrevocable durations = irrevocable commits,
    backoff sum = [backoff_cycles], and the phase identities [prefix +
    lock_wait + suffix + irrevocable + stm = useful_cycles], [wasted =
    wasted_cycles], [backoff = backoff_cycles]. Bounded: acquired and
    timed-out wait episodes sum to at most [lock_wait_cycles] (an
    episode cut short by an abort folds its tail spin into the abort
    path). A commit without its begin leaves cycles out of the phase
    profile, so the identities fail; {!Stx_trace.Check} names the
    violation. [Error] carries one message per divergence. *)

val histogram : Registry.t -> string -> (string * string) list -> Hist.t
(** Every histogram series named [name] whose labels include [labels],
    merged (empty when none matches) — e.g. [stx_tx_latency_cycles]
    with [[("outcome", "commit")]] across whatever [policy] the run
    carried. *)

(** {2 Phase profile readout} *)

type phase = Prefix | Lock_wait | Suffix | Irrevocable | Stm | Backoff | Wasted

val phases : phase list
(** In presentation order. *)

val phase_cycles : Registry.t -> ab:int -> phase -> int
val abs_profiled : Registry.t -> int list
(** Atomic blocks with any phase attribution, ascending. *)

val phase_total : Registry.t -> phase -> int
(** Summed over atomic blocks. *)
