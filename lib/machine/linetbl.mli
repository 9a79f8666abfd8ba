(** Open-addressed int-key -> int-value table, built for reuse on the
    simulator hot path: no allocation on add/lookup/reset, O(live)
    [reset], and deterministic insertion-order iteration (the order
    survives growth).  Keys must be non-negative; capacity doubles past
    50% load, so the capacity hint is advisory. *)

type t

val create : ?capacity_hint:int -> unit -> t
(** Preallocate for about [capacity_hint] entries (default 16). *)

val length : t -> int
val capacity : t -> int  (** current slot count (power of two) *)

val idx : t -> int -> int
(** Occupied slot of the key, or -1.  The slot stays valid until the
    next [set]/[add]/[reset]; read it with {!value_at}. *)

val value_at : t -> int -> int

val find : t -> int -> absent:int -> int
(** [find t k ~absent] is the value of [k], or [absent] when [k] is not
    in the table — one probe. Pick as [absent] a value no entry holds. *)

val set : t -> int -> int -> int
(** Insert or overwrite; returns the key's slot. *)

val add : t -> int -> int -> unit
(** [set] with the slot discarded. *)

val reset : t -> unit
(** Drop every entry in O(live entries); capacity is retained. *)

val key_of_order : t -> int -> int
(** [key_of_order t i] is the [i]-th inserted key (0-based), for
    closure-free iteration: [for i = 0 to length t - 1 do ... done]. *)

val value_of_order : t -> int -> int
(** Value paired with {!key_of_order}. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] applies [f key value] in insertion order. *)
