(* All sets live in one flat array ([ways] slots per set, most- to
   least-recently used; -1 means empty), so creating a cache is a single
   allocation however many sets it has and a probe walks contiguous
   memory. Sets stay packed front-to-back: probe permutes the occupied
   prefix, invalidate compacts, and insert shifts — so -1 slots only ever
   trail the live ones.

   Scan loops are top-level functions taking their state as arguments: a
   local [let rec] capturing the set would allocate a closure per probe
   without flambda, and probes run once per simulated memory access. *)

type t = { data : int array; ways : int; mask : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~lines ~ways =
  if lines mod ways <> 0 then invalid_arg "Cache.create: lines mod ways <> 0";
  let nsets = lines / ways in
  if not (is_power_of_two nsets) then
    invalid_arg "Cache.create: set count must be a power of two";
  { data = Intpool.acquire ~len:(nsets * ways) ~fill:(-1); ways; mask = nsets - 1 }

(* Release the backing array for reuse; [t] must not be used after. *)
let retire t = Intpool.release t.data

let base_of t line = (line land t.mask) * t.ways

(* Offset of [line] within [base, last], or -1. *)
let rec scan data line last i =
  if i > last then -1
  else if data.(i) = line then i
  else scan data line last (i + 1)

(* Offset of [line] or of the first empty slot, whichever comes first
   (the packed-prefix invariant makes an empty slot proof of a miss with
   room); -1 when the set is full without [line]. *)
let rec scan_or_empty data line last i =
  if i > last then -1
  else begin
    let v = data.(i) in
    if v = line || v = -1 then i else scan_or_empty data line last (i + 1)
  end

(* Shift [data.(lo..hi-1)] one slot right.  Sets are at most a few ways
   wide, so an explicit loop beats [Array.blit]'s out-of-line call. *)
let shift_right data lo hi =
  for j = hi downto lo + 1 do
    data.(j) <- data.(j - 1)
  done

(* Move the element at offset [base + i] to the set's front. *)
let move_to_front t base i =
  let v = t.data.(base + i) in
  shift_right t.data base (base + i);
  t.data.(base) <- v

let probe t line =
  let base = base_of t line in
  if t.data.(base) = line then true (* MRU hit: the common case *)
  else begin
    let i = scan t.data line (base + t.ways - 1) (base + 1) in
    if i < 0 then false
    else begin
      move_to_front t base (i - base);
      true
    end
  end

let holds t line =
  let base = base_of t line in
  scan t.data line (base + t.ways - 1) base >= 0

(* Install [line]; returns the evicted LRU victim (or -1 when the set
   had room / already held the line) so the hierarchy can keep its
   presence index exact without rescanning. *)
let insert_evict t line =
  let base = base_of t line in
  let last = base + t.ways - 1 in
  let i = scan_or_empty t.data line last base in
  if i >= 0 then begin
    if t.data.(i) = line then move_to_front t base (i - base)
    else begin
      (* first empty slot: room in the set, install with no victim *)
      shift_right t.data base i;
      t.data.(base) <- line
    end;
    -1
  end
  else begin
    (* full set, no hit: evict LRU, shift everything down *)
    let victim = t.data.(last) in
    shift_right t.data base last;
    t.data.(base) <- line;
    victim
  end

let insert t line = ignore (insert_evict t line)

let invalidate t line =
  let base = base_of t line in
  let last = base + t.ways - 1 in
  let i = scan t.data line last base in
  if i >= 0 then begin
    for j = i to last - 1 do
      t.data.(j) <- t.data.(j + 1)
    done;
    t.data.(last) <- -1
  end

