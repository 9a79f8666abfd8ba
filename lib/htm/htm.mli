open Stx_machine

(** The simulated hardware transactional memory.

    ASF-style best-effort HTM as configured in Table 2: read and write sets
    tracked at cache-line granularity (the r/w bits), lazy versioning (a
    per-core write buffer; speculative stores become visible only at
    commit), eager requester-wins conflict resolution, and a per-line PC
    tag recording the program counter of the line's first transactional
    access — delivered in full as the "conflicting PC" when that line is
    the source of an abort. As in an ASF L1 line, a core keeps a line's
    read bit, written bit and PC tag in one entry of one per-core line
    table, so a transactional access makes one table probe; the write
    buffer is probed only for lines the attempt wrote. The machine above truncates it to the tag
    width the program was compiled for (the compiled pipeline's
    [pc_bits]), so the hardware and the anchor tables cannot disagree on
    the width.

    Conflict resolution, set capacity, and (in the runtime above) the
    fallback schedule are pluggable via {!Stx_policy}: the bundle given to
    {!create} selects requester-wins (the paper's eager ASF point),
    responder-wins (the requester suicides), or timestamp/karma (the older
    transaction survives); and an optional bounded read/write-set budget
    whose overflow dooms the transaction with the [Capacity] reason. The
    default bundle reproduces the original hard-coded behaviour exactly.

    Nontransactional loads and stores — the feature Staggered Transactions
    requires (§4) — bypass the write buffer and the read/write sets: an
    nt-load sees only committed state and never aborts anyone; an nt-store
    applies immediately and, like any write by another agent, aborts every
    transaction holding the line (requester wins). Irrevocable execution
    uses the same operations.

    A single global lock word supports the runtime's irrevocable fallback;
    hardware transactions subscribe to it immediately before commit. *)

type abort_reason =
  | Conflict of { conf_addr : int; conf_pc : int option; aggressor : int }
      (** data conflict; [conf_pc] is the doomed core's full PC of its
          first access to the conflicting line, when it has one;
          [aggressor] is the surviving core — under requester-wins the
          requester whose access doomed the victim, under responder-wins
          or timestamp possibly the established owner the requester lost
          to *)
  | Lock_subscription  (** the global lock was held at commit time *)
  | Capacity
      (** the read/write-set budget of a [Bounded] capacity policy was
          exceeded *)
  | Explicit  (** the program executed an explicit abort *)
  | Stm_conflict of { conf_addr : int; aggressor : int }
      (** a concurrent software-tier commit ({!stm_publish}) published a
          line in this transaction's footprint; [aggressor] is the
          committing STM thread's core *)

type status = Idle | Active | Doomed of abort_reason

type t

val max_cores : int
(** The most cores an HTM (and so a simulated machine) can have: 4096. *)

val create : ?policy:Stx_policy.t -> Config.t -> Memory.t -> Alloc.t -> t
(** Allocates the global-lock word out of [Alloc]. [policy] (default
    {!Stx_policy.default}) fixes the conflict-resolution and capacity
    behaviour for the life of the HTM. Supports up to {!max_cores}
    cores; the per-core flat line tables are sized from the policy's
    capacity budget and reused across attempts without allocating. *)

val config : t -> Config.t
val policy : t -> Stx_policy.t

val status : t -> core:int -> status

val tx_begin : ?fresh:bool -> t -> core:int -> unit
(** Start a transaction. The core must be [Idle]. [fresh] (default true)
    assigns a new begin timestamp; the runtime passes [~fresh:false] on
    retries so that, under the [Timestamp] resolution policy, a
    repeatedly-aborted transaction keeps its (old) priority instead of
    being reborn young — the karma that rules out livelock. *)

val tx_load : t -> core:int -> addr:int -> pc:int -> int
(** Transactional load: resolves conflicts with writers elsewhere per the
    resolution policy, then joins the read set (unless the budget of a
    [Bounded] capacity is exhausted — a [Capacity] self-doom), records
    the PC tag on first access, and reads through the local write buffer.
    The core must be [Active]. If the policy dooms the requester itself,
    the returned value is the committed memory word (the transaction is
    dead; the value is never observable). *)

val tx_store : t -> core:int -> addr:int -> value:int -> pc:int -> unit
(** Transactional store: resolves conflicts with readers and writers
    elsewhere per the resolution policy, joins the write set (or
    [Capacity]-dooms on budget exhaustion), and buffers the value. *)

val tx_commit : t -> core:int -> bool
(** Subscribe to the global lock, then atomically publish the write buffer.
    Returns [false] — leaving the core [Doomed] — if the lock was held. *)

val tx_self_abort : t -> core:int -> unit
(** Explicit abort by the program (the core becomes [Doomed]). *)

val tx_cleanup : t -> core:int -> abort_reason
(** Acknowledge a doomed transaction: discard speculative state, return the
    reason, and go [Idle]. *)

val read_set_size : t -> core:int -> int

val last_set_sizes : t -> core:int -> int * int
(** Read/write-set sizes (lines) captured the last time the core's
    speculative state was discarded — at commit publication, or at the
    moment the transaction was doomed (by then the live sets have been
    reset, so a post-hoc {!read_set_size} would report 0). A
    [Capacity]-doomed transaction reports the footprint at the moment the
    budget was exceeded, counting the line that did not fit — never the
    post-reset 0/0. The simulator reads this when it emits commit/abort
    events. *)

val nt_load : t -> addr:int -> int
val nt_store : t -> core:int -> addr:int -> value:int -> unit
(** [core] identifies the requester so its own transaction (if any) is not
    self-aborted; pass the executing core. A nontransactional store cannot
    roll back, so it dooms conflicting transactions under {e every}
    resolution policy. *)

val nt_cas : t -> core:int -> addr:int -> expected:int -> desired:int -> bool

val global_lock_held : t -> bool
val acquire_global_lock : t -> core:int -> bool
(** Nontransactional test-and-set of the global lock; aborts transactions
    subscribed to it. *)

val release_global_lock : t -> unit

(** {2 Software-tier interop}

    The hybrid fallback runs a TL2-style software tier ([Stx_stm]) beside
    the hardware. The two directions of the contract live here: a
    committing software transaction publishes through {!stm_publish},
    which dooms every speculative hardware reader or writer of the line
    ([Stm_conflict] — durable values always win); and every hardware
    publication (lazy commit or nontransactional store) announces its
    lines through the {!set_on_publish} hook so the software tier can
    advance its version clock and keep readers opaque. *)

val writers_present : t -> line:int -> bool
(** Any speculative hardware writer of [line], at any core count. The
    software tier refuses to commit a write to a hardware-owned line (it
    defers instead of dooming the hardware optimistically). *)

val stm_publish : t -> core:int -> addr:int -> value:int -> unit
(** Publish one committed software-tier word: dooms every speculative
    hardware reader/writer of the enclosing line with [Stm_conflict]
    (excepting [core] itself), then stores to memory. Does {e not} fire
    the {!set_on_publish} hook — the software tier stamps its own version
    words. *)

val set_on_publish : t -> (line:int -> unit) option -> unit
(** Install (or clear) the publication hook. Called once per write-set
    line, in the order the attempt first wrote them, when a hardware
    transaction commits, and once per
    nontransactional store, before any event is observable to other
    threads' loads. *)

val set_on_doom : t -> (int -> unit) option -> unit
(** Install (or clear) the doom hook. It is called with the doomed
    core exactly once for each Active → Doomed transition, whatever the
    cause — a conflicting access or nontransactional store by another
    core under any resolution policy, a lazy commit, a software-tier
    publication, losing a conflict as the requester, a capacity
    overflow, lock subscription at commit, or an explicit abort — right
    after the core's speculative state is discarded and its status set.
    A core already [Doomed] or [Idle] is never reported. The simulator
    keeps a per-thread doomed bit from it, so it never asks {!status}
    per step, and rewinds a victim that ran ahead of the dooming
    step. *)

val retire : t -> unit
(** Release the reader/writer index storage into the domain-local array
    pool; the HTM must not be used afterwards. *)
