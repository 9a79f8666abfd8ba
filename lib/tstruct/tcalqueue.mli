open Stx_machine
open Stx_tir

(** Bucketed (calendar-style) min-priority queue — the stand-in for the
    paper's B+-tree priority queue. Priorities map to fixed buckets, each
    a bounded array with a count; pop takes from the lowest nonempty
    bucket, insert drops into its priority's bucket. Like the B+-tree's
    left-most leaf, the head bucket's count word is a {e stable} hot
    address across many pops (precise-mode lockable), while inserts
    scatter across bucket lines. Ordering is exact between buckets and
    FIFO-of-stack within one (fine for best-first search).

    TIR functions:
    - [stx_cq_insert cq prio data] → 1, or 0 when the bucket overflowed
      (the item is dropped; size buckets generously)
    - [stx_cq_pop cq] → data of a minimum-bucket entry, or -1 when empty *)

val register : Ir.program -> unit

val insert_fn : string
val pop_fn : string

val setup :
  Memory.t -> Alloc.t -> nbuckets:int -> capacity:int -> width:int ->
  init:(int * int) list -> int

val host_insert : Memory.t -> int -> prio:int -> data:int -> bool
val size : Memory.t -> int -> int
val drain_order : Memory.t -> int -> int list
(** Bucket indices of remaining items, ascending (for validation). *)
