(* TIR types are referenced through Stx_compiler *)
open Stx_machine
open Stx_core

(** The simulated machine: a deterministic discrete-event interpreter that
    runs one TIR thread per core under the HTM and the Staggered
    Transactions runtime.

    The committed order is one step per instruction or block terminator:
    the runnable thread with the smallest local clock (ties by id) steps
    next and is charged the op's cycle cost — memory operations pay the
    hierarchy latency of {!Stx_machine.Hierarchy}. Only steps that touch
    shared state are scheduled that way: after each one the thread runs
    its following thread-local ops (register, address and branch ops,
    calls and plain returns) at once, and a doom from another core
    rewinds a thread that ran past the dooming step, so it aborts on the
    same cycle. A thread whose recheck of the global lock fails sleeps
    until the lock is released and resumes at the recheck the one-step
    order would have reached first. Results and event streams are those
    of the one-step order.
    Atomic calls follow the paper's runtime protocol: a bounded number of
    hardware attempts separated by backoff, then irrevocable execution
    under the global lock. Under the [htm-stm-lock] fallback a TL2-style
    software tier ([Stx_stm]) interposes between the two: exhausted
    hardware retries (and [Capacity] aborts, whose footprints the
    software tier can hold) run as software transactions, and the global
    lock only backstops a software attempt budget spent on validation
    livelock. The retry budget and backoff schedule come from
    the {!Stx_policy.Fallback} policy of the [htm_policy] bundle (default:
    the paper's 10 attempts with polite backoff, the seed behaviour);
    the bundle's resolution and capacity policies govern the HTM itself.
    A [Capacity] abort goes irrevocable immediately — the footprint will
    not shrink on retry. ALPs consult the thread's ABContext and acquire
    advisory locks (spinning with a timeout); the Figure 6 policy runs in
    the abort handler. *)

exception Sim_error of string
(** A program-level trap: null dereference, division by zero, runaway
    simulation, etc. *)

type abort_kind =
  | Conflict
  | Lock_subscription
  | Capacity
  | Explicit
  | Stm_conflict
      (** a concurrent software-tier commit published into this hardware
          transaction's footprint (hybrid fallback only) *)

type stm_abort_kind = Stm_validation | Stm_hw_owned | Stm_locksub | Stm_explicit
(** Why a software-tier attempt died: read-set validation failure,
    deference to a hardware-owned write line, the global lock held at
    commit, or an explicit program abort. *)

type event =
  | Tx_begin of { tid : int; ab : int; attempt : int; probe : bool }
      (** one per hardware attempt AND per irrevocable (re)start, so every
          commit closes a begin *)
  | Tx_commit of {
      tid : int;
      ab : int;
      cycles : int;  (** cycles of the committing attempt *)
      irrevocable : bool;
      rset : int;  (** read-set lines at commit (0 when irrevocable) *)
      wset : int;  (** write-set lines at commit *)
      probe : bool;
    }
  | Tx_abort of {
      tid : int;
      ab : int;
      kind : abort_kind;
      conf_line : int option;  (** conflicting cache line, data conflicts *)
      conf_pc : int option;  (** the victim's (truncated) PC tag *)
      aggressor : int option;  (** core whose access doomed the victim *)
      cycles : int;  (** cycles wasted by the aborted attempt *)
      rset : int;  (** read-set lines when the attempt was doomed *)
      wset : int;  (** write-set lines when the attempt was doomed *)
      probe : bool;
    }
  | Tx_irrevocable of { tid : int; ab : int }
      (** global lock acquired; an irrevocable [Tx_begin] follows *)
  | Alp_executed of { tid : int; ab : int; site : int; fired : bool }
      (** a dynamic ALP instruction; [fired] when it went for its lock *)
  | Lock_attempt of { tid : int; lock : int; line : int }
  | Lock_acquired of { tid : int; lock : int; line : int }
  | Lock_released of { tid : int; lock : int; committed : bool }
  | Lock_waiting of { tid : int; lock : int }
  | Lock_timeout of { tid : int; lock : int }
  | Backoff_start of { tid : int }
  | Backoff_end of { tid : int }
  | Req_dispatch of { tid : int; req : int; ab : int }
      (** an injected request left the arrival queue and began service on
          core [tid] (serving runs only; see {!injection}) *)
  | Req_done of { tid : int; req : int; ab : int }
      (** the request's transaction committed — emitted right after the
          closing [Tx_commit] (or [Stm_commit]), at the same timestamp *)
  | Stm_begin of { tid : int; ab : int; attempt : int }
      (** a software-tier attempt started ([htm-stm-lock] fallback);
          [attempt] continues the hardware attempt numbering *)
  | Stm_commit of {
      tid : int;
      ab : int;
      cycles : int;  (** cycles of the committing software attempt *)
      vcycles : int;
          (** version-word latency charged at commit (validation probes
              plus stripe lock/stamp traffic; inside [cycles]) *)
      rset : int;  (** read-set lines at commit *)
      wset : int;  (** write-set lines at commit *)
    }
  | Stm_abort of {
      tid : int;
      ab : int;
      kind : stm_abort_kind;
      cycles : int;
      vcycles : int;
      rset : int;
      wset : int;
    }

val tid_of : event -> int
(** The core that emitted the event. *)

val ab_of : event -> int option
(** The atomic block the event names; [None] for lock and backoff
    events. *)

val abort_label : abort_kind -> string
(** The reason label observers print for a hardware abort:
    [conflict], [lock_subscription], [capacity], [explicit],
    [stm_conflict]. *)

val stm_abort_label : stm_abort_kind -> string
(** The same for a software-tier abort: [stm_validation],
    [stm_hw_owned], [stm_lock_subscription], [stm_explicit]. *)

(** What the request source tells an idle core (a core whose call stack
    is empty) when polled. This is the open-loop serving hook: instead of
    running a fixed per-thread program to completion, every core asks the
    injector for its next unit of work, timestamped on the simulated
    clock. *)
type injection =
  | Inject of { req : int; ab : int; args : int array }
      (** run atomic block [ab] with [args] as request [req] now *)
  | Idle_until of int
      (** no request ready; sleep until this simulated time (a poll that
          does not advance past [now] still moves the clock by one cycle,
          so the event loop always progresses) *)
  | Drained  (** no further requests will arrive: the core retires *)

type setup_env = { memory : Memory.t; alloc : Alloc.t; setup_rng : Stx_util.Rng.t }

type spec = {
  compiled : Stx_compiler.Pipeline.t;
  thread_main : string;  (** function run by every thread *)
  thread_args : setup_env -> threads:int -> int array array;
      (** build the shared state in simulated memory and return each
          thread's argument vector *)
}

val run :
  ?seed:int ->
  ?policy:Policy.params ->
  ?htm_policy:Stx_policy.t ->
  ?lock_timeout:int ->
  ?max_waiters:int ->
  ?max_steps:int ->
  ?on_event:(time:int -> event -> unit) ->
  ?injector:(tid:int -> now:int -> injection) ->
  cfg:Config.t ->
  mode:Mode.t ->
  spec ->
  Stats.t
(** Deterministic for a given [(seed, cfg, mode, htm_policy, spec)].
    [injector], when given, turns the run request-driven: each thread
    still executes [thread_main] first (a serving spec makes that a
    trivial return), and from then on an empty call stack polls the
    injector for the next request instead of finishing the thread;
    brackets of [Req_dispatch]/[Req_done] events report each request's
    service interval. Without [injector] behaviour is bit-for-bit the
    closed-loop machine.
    [policy] is the ALP activation policy (Figure 6); [htm_policy]
    (default {!Stx_policy.default}, the paper's hardware point) bundles
    conflict resolution, set capacity, and the fallback schedule.
    ALPs hash addresses into a fixed table of 256 advisory locks.
    [lock_timeout] defaults to 100_000 cycles; [max_waiters] (default 2)
    caps the spinners per advisory lock — an ALP finding a full queue
    proceeds speculatively, keeping the mechanism a stagger rather than
    a convoy; [max_steps] bounds the
    total step count (instructions, terminators, lock rechecks and idle
    polls) as a runaway backstop, raising [Sim_error] past it. Steps a
    thread has run ahead count when they run, so a run within 64 steps
    per core of the bound may trap slightly early. *)
