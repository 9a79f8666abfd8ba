(** The memory hierarchy timing model: per-core private L1 and L2, a shared
    L3, and DRAM, with the latencies of Table 2.

    An access is charged the latency of the closest level holding the line
    and fills the levels above it. A write invalidates the line in every
    other core's private caches (MESI-style write-invalidate), so contended
    lines ping-pong and pay coherence misses — the timing effect that makes
    wasted-work measurements meaningful. *)

type t

val create : Config.t -> t

val access : t -> core:int -> line:int -> write:bool -> int
(** [access t ~core ~line ~write] returns the latency in cycles and updates
    cache state. *)

val retire : t -> unit
(** Release every backing array into the domain-local pool for the next
    run; the hierarchy must not be used afterwards. *)
