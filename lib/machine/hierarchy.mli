(** The memory hierarchy timing model: per-core private L1 and L2, a shared
    L3, and DRAM, with the latencies of Table 2.

    An access is charged the latency of the closest level holding the line
    and fills the levels above it. A write invalidates the line in every
    other core's private caches (MESI-style write-invalidate), so contended
    lines ping-pong and pay coherence misses — the timing effect that makes
    wasted-work measurements meaningful. *)

(** A set-associative cache of line tags with LRU replacement. Only
    presence is tracked (the data lives in {!Memory}); the hierarchy uses
    presence to charge access latencies and to model coherence
    invalidations. It lives inside this module so that {!access}'s L1
    probe compiles inline. *)
module Cache : sig
  type t

  val create : lines:int -> ways:int -> t
  (** [lines] must be a multiple of [ways]; the set count must be a power
      of two. *)

  val probe : t -> int -> bool
  (** [probe t line] reports whether [line] is present, refreshing its LRU
      position on a hit. *)

  val holds : t -> int -> bool
  (** Presence check without touching LRU state (for coherence snooping). *)

  val insert : t -> int -> unit
  (** Install [line], evicting the set's LRU victim if the set is full. *)

  val insert_evict : t -> int -> int
  (** {!insert}, reporting the evicted line (-1 when nothing was evicted:
      the set had room or already held the line) — lets the hierarchy keep
      its presence index exact without rescanning ways. *)

  val invalidate : t -> int -> unit
  (** Drop [line] if present. *)

  val retire : t -> unit
  (** Release the backing storage into the domain-local array pool; the
      cache must not be used afterwards. *)
end

type t

val create : Config.t -> t

val access : t -> core:int -> line:int -> write:bool -> int
(** [access t ~core ~line ~write] returns the latency in cycles and updates
    cache state. *)

val retire : t -> unit
(** Release every backing array into the domain-local pool for the next
    run; the hierarchy must not be used afterwards. *)
