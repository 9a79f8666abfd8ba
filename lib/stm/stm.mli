open Stx_machine
open Stx_htm

(** A TL2-style software transaction tier for the hybrid fallback.

    When a hardware transaction exhausts its retry budget (or cannot fit —
    a [Capacity] abort), the [htm-stm-lock] fallback routes it here before
    the irrevocable global lock: reads validate against a global version
    clock, writes buffer, and commit acquires per-stripe locks,
    re-validates, and publishes. Shared metadata — a striped table of
    per-cache-line version words, each encoding [2*version + lock_bit] —
    lives in the simulated memory, so version probes cost real (modelled)
    memory latency.

    Interop with the hardware tier is two-directional and asymmetric:

    - a committing software transaction publishes through
      {!Htm.stm_publish}, dooming every speculative hardware reader or
      writer of its lines ([Stm_conflict] — committed values always win);
      but it {e defers} to lines a hardware transaction is speculatively
      {e writing} ([Hw_owned] self-abort) so a buffered hardware update is
      never published over;
    - every hardware publication calls back into {!note_published}
      (via [Htm.set_on_publish]), advancing the clock and stamping the
      stripe so concurrent software readers stay opaque.

    The discrete-event machine executes an entire commit atomically inside
    one simulated step, so stripe locks are never {e observed} held; they
    exist so the protocol (and its cost accounting) matches what real
    hardware would execute. *)

type abort_kind =
  | Validation
      (** a read-set stripe changed since it was first read (or was
          already newer than the begin snapshot) — includes stripe
          aliasing false positives *)
  | Hw_owned
      (** a write line is speculatively written by a hardware
          transaction; the software tier defers *)
  | Locksub  (** the irrevocable global lock was held at commit time *)
  | Explicit  (** the program executed an explicit abort *)

type status = Idle | Active | Doomed of abort_kind

type t

val stripes : int
(** The tier's stripe count, 256: one version word per stripe. *)

val create : Htm.t -> Memory.t -> Alloc.t -> t
(** Allocates {!stripes} version words out of [Alloc]'s shared region.
    Cache lines hash onto stripes with the same Fibonacci scheme as the
    advisory-lock table; aliasing can only cause spurious validation
    aborts, never a missed conflict. *)

val stripe_of_line : nslots:int -> line:int -> int
(** The pure stripe mapping: the index (in [0, nslots)) of the versioned
    write-lock covering cache line [line] — Fibonacci hashing of the line
    index, identical to the advisory-lock table's scheme. {!version_addr}
    and every commit-time lock/validation probe use exactly this
    function; it is exposed so external consumers (the STX109 lint, the
    simulator's cost accounting) cannot drift from the tier itself.
    Distinct lines may alias onto one stripe: aliasing can only cause
    spurious validation aborts, never a missed conflict. *)

val clock : t -> int
(** Current global version clock (monotonic; advanced by every software
    commit and every hardware publication). *)

val status : t -> core:int -> status

val version_addr : t -> line:int -> int
(** Simulated address of the version word covering [line] — the machine
    charges memory latency against it for validation probes. *)

val tx_begin : t -> core:int -> unit
(** Start a software transaction: snapshot the clock, clear the sets.
    The core must be [Idle]. *)

val tx_load : t -> core:int -> addr:int -> int
(** Software transactional load: reads through the write buffer; on the
    first touch of a line, probes its version word and self-dooms
    ([Validation]) if the stripe is locked or newer than the begin
    snapshot; on a repeat touch, re-checks the recorded word. A doomed
    transaction gets the committed memory word back (dead value). *)

val tx_store : t -> core:int -> addr:int -> value:int -> unit
(** Buffer a write; nothing is published or locked until commit. *)

val tx_commit : t -> core:int -> bool
(** The TL2 commit: refuse if the global lock is held ([Locksub]) or any
    write line is hardware-owned ([Hw_owned]); otherwise lock the write
    stripes, re-validate the read set (unlocking and self-dooming with
    [Validation] on failure), advance the clock, publish each buffered
    word through {!Htm.stm_publish}, and stamp the stripes with the new
    version. Returns [false] — leaving the core [Doomed] — on any
    failure; [true] after publication. *)

val tx_self_abort : t -> core:int -> unit
(** Explicit abort by the program (the core becomes [Doomed]). *)

val tx_cleanup : t -> core:int -> abort_kind
(** Acknowledge a doomed transaction: return the reason and go [Idle]. *)

val iter_read_lines : t -> core:int -> (int -> unit) -> unit
(** Applies the callback to each read-set line in ascending order
    (sorted into an internal scratch array, invalidated by the next
    iter/commit), without allocating — the machine walks these to charge
    validation latency {e before} committing. *)

val iter_write_lines : t -> core:int -> (int -> unit) -> unit
(** The same over the write-set lines. *)

val iter_write_addrs : t -> core:int -> (int -> unit) -> unit
(** The same over the buffered store addresses — for publication cost
    accounting. *)

val last_set_sizes : t -> core:int -> int * int
(** Read/write-set sizes captured the last time the buffered state was
    discarded (commit or doom), mirroring [Htm.last_set_sizes]. *)

val note_published : t -> line:int -> unit
(** A hardware publication landed on [line]: advance the clock and stamp
    the covering stripe. Wired to [Htm.set_on_publish] by the runtime. *)
