(** The pluggable HTM policy bundle.

    The paper's evaluation (§6) is conditioned on a single hardware point:
    eager requester-wins conflict resolution, effectively unbounded
    read/write sets, and a fixed retry-then-irrevocable software fallback.
    This module makes those three axes first-class values so the simulator
    can explore the neighbourhood of that point — which transactions can
    commit at all under bounded capacity, and how the fallback path shapes
    throughput under contention — without forking the machine model.

    A policy bundle is plain data (variants and records, no closures), so
    it can be printed, parsed axis by axis, compared structurally, and
    attached as a metrics label. The {!default} bundle is the paper's
    configuration and is behaviour-preserving by construction: running
    any workload under [default] produces bit-for-bit the same
    {!Stx_sim.Stats} as the pre-policy simulator. *)

module Resolution : sig
  (** Which transaction survives a data conflict. *)
  type t =
    | Requester_wins
        (** The accessing (requesting) core dooms every conflicting
            speculative transaction — eager ASF-style resolution, the
            paper's hardware point. *)
    | Responder_wins
        (** Suicide: a transactional requester that hits a line owned by
            another speculative transaction dooms {e itself}; the
            established owner (responder) keeps running. Nontransactional
            and irrevocable requesters still win — they cannot abort. *)
    | Timestamp
        (** Karma: the older transaction (earlier begin timestamp) wins.
            Timestamps persist across retries of the same transaction, so
            a repeatedly-aborted transaction ages into priority and cannot
            be livelocked out. *)

  val to_string : t -> string
  val of_string : string -> (t, string) result
  val all : t list
end

module Capacity : sig
  (** Read/write-set capacity of the simulated HTM. *)
  type t =
    | Unbounded  (** No hardware limit (the paper's idealisation). *)
    | Bounded of { read_lines : int; write_lines : int }
        (** A transaction that tries to grow its read (write) set past
            [read_lines] ([write_lines]) distinct cache lines aborts with
            the [Capacity] reason. Budgets must be positive. *)

  val to_string : t -> string
  val of_string : string -> (t, string) result
end

module Fallback : sig
  (** Retry/backoff schedule between an abort and the next attempt, and
      when to give up on hardware and go irrevocable. *)
  type t =
    | Polite of { retries : int option }
        (** The seed behaviour: linearly growing polite delay drawn from
            the thread's own simulation RNG; after [retries] failed
            attempts (default 10, the paper's budget) the transaction
            acquires the global lock and runs irrevocably. *)
    | Backoff of { retries : int; base : int; max_exp : int; seed : int }
        (** Exponential randomized backoff: attempt [k] sleeps a uniform
            draw from [0, base * 2^min(k, max_exp)), using a dedicated
            PRNG stream derived from [seed] and the thread id — so
            changing the backoff policy never perturbs the workload's own
            random choices. *)
    | Stm_tier of { retries : int option; stm_retries : int }
        (** The hybrid three-tier fallback (htm → stm → lock): after
            [retries] failed hardware attempts (default 10, as for
            [Polite]) — or immediately on a [Capacity] abort — the
            transaction re-executes in the TL2-style software tier
            ({!Stx_stm}) instead of going irrevocable. Only after
            [stm_retries] failed software attempts does it acquire the
            global lock, which now backstops STM validation livelock
            rather than every hardware failure. Parses from
            ["htm-stm-lock[:R[:S]]"] or ["stm[:N]"]. *)

  val to_string : t -> string
  val of_string : string -> (t, string) result

  val retry_budget : t -> int
  (** Number of hardware attempts before going irrevocable. *)
end

type t = {
  resolution : Resolution.t;
  capacity : Capacity.t;
  fallback : Fallback.t;
}

val default : t
(** [Requester_wins] + [Unbounded] + [Polite {retries = None}] — the
    paper's hardware point; reproduces the pre-policy simulator exactly. *)

val make :
  ?resolution:Resolution.t -> ?capacity:Capacity.t -> ?fallback:Fallback.t ->
  unit -> t

val label : t -> string
(** Canonical ["resolution+capacity+fallback"] string. Uses only
    characters from the metrics-registry label charset
    [[a-zA-Z0-9_.:+-]], with [+] as the axis separator, so it is directly
    usable as a label value. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
