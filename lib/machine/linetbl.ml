(* Open-addressed int-key -> int-value table for the simulator hot path.

   The HTM read/write sets, store tags and write buffers were Hashtbls,
   which allocate a bucket cons on every add and a [Some] on every
   lookup.  This table is three flat int arrays: linear-probed [keys]
   and [vals], plus an insertion-order side array of occupied slots so
   iteration is both allocation-free and deterministic (Hashtbl
   iteration order depends on the hash layout; commit and stm_publish
   walk the write set, so the order must not drift with capacity).
   [reset] clears only the occupied slots - O(live entries), not
   O(capacity) - which is what makes reuse across millions of
   transaction attempts cheap.

   Keys must be non-negative ([-1] is the empty-slot sentinel).  The
   table grows by doubling past 50% load, so a capacity hint is an
   optimisation, never a correctness bound: HTM capacity budgets are
   enforced by the caller, not here. *)

type t = {
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable keys : int array;  (* -1 = empty *)
  mutable vals : int array;
  mutable order : int array;  (* occupied slots in insertion order, [n] live *)
  mutable n : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let create ?(capacity_hint = 16) () =
  let cap = next_pow2 (max 16 (2 * capacity_hint)) in
  {
    mask = cap - 1;
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    order = Array.make cap 0;
    n = 0;
  }

let length t = t.n
let capacity t = t.mask + 1

(* Fibonacci-style multiplicative hash; the xor-shift folds high bits
   back down so that sequential line numbers spread across slots. *)
let hash k =
  let h = k * 0x39E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

(* The probe loop is a top-level function with its state in arguments: a
   local loop (whether a [let rec] closure or a [ref] counter) would
   allocate on every call without flambda, defeating the table's point. *)
let rec probe_loop keys mask k i =
  let kk = keys.(i) in
  if kk >= 0 && kk <> k then probe_loop keys mask k ((i + 1) land mask) else i

(* Slot holding [k], or the empty slot where its probe chain ends. *)
let probe t k = probe_loop t.keys t.mask k (hash k land t.mask)

(* The occupied slot of [k], or -1.  Callers pair this with [value_at]
   to read without allocating an option. *)
let idx t k =
  if k < 0 then -1
  else
    let i = probe t k in
    if t.keys.(i) = k then i else -1

(* The value of [k], or [absent] when [k] is not in the table: one
   probe, and no option to allocate. *)
let find t k ~absent =
  if k < 0 then absent
  else
    let i = probe t k in
    if t.keys.(i) = k then t.vals.(i) else absent

let value_at t i = t.vals.(i)
let key_of_order t oi = t.keys.(t.order.(oi))
let value_of_order t oi = t.vals.(t.order.(oi))

let grow t =
  let old_keys = t.keys and old_vals = t.vals and old_order = t.order in
  let n = t.n in
  let cap = 2 * (t.mask + 1) in
  t.mask <- cap - 1;
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.order <- Array.make cap 0;
  (* reinsert in insertion order so iteration order survives growth *)
  for oi = 0 to n - 1 do
    let slot = old_order.(oi) in
    let k = old_keys.(slot) in
    let i = probe t k in
    t.keys.(i) <- k;
    t.vals.(i) <- old_vals.(slot);
    t.order.(oi) <- i
  done

(* Insert or overwrite; returns the slot of [k]. *)
let rec set t k v =
  if k < 0 then invalid_arg "Linetbl.set: negative key";
  let i = probe t k in
  if t.keys.(i) = k then begin
    t.vals.(i) <- v;
    i
  end
  else if 2 * (t.n + 1) > t.mask + 1 then begin
    grow t;
    set t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.order.(t.n) <- i;
    t.n <- t.n + 1;
    i
  end

let add t k v = ignore (set t k v)

let reset t =
  (* [order] records occupied slots directly, so clearing is a straight
     store per live entry and never disturbs other probe chains (every
     occupied slot goes empty in the same pass) *)
  for oi = 0 to t.n - 1 do
    t.keys.(t.order.(oi)) <- -1
  done;
  t.n <- 0

let iter f t =
  for oi = 0 to t.n - 1 do
    let slot = t.order.(oi) in
    f t.keys.(slot) t.vals.(slot)
  done
