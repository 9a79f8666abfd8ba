(* The caches live in this module, not beside it: [access] probes L1 on
   every simulated memory access, and only a call inside one compilation
   unit can be inlined when library modules are compiled [-opaque]. *)
module Cache = struct
  (* All sets live in one flat array ([ways] slots per set, most- to
     least-recently used; -1 means empty), so creating a cache is a single
     allocation however many sets it has and a probe walks contiguous
     memory. Sets stay packed front-to-back: probe permutes the occupied
     prefix, invalidate compacts, and insert shifts — so -1 slots only ever
     trail the live ones.

     Scan loops are top-level functions taking their state as arguments: a
     local [let rec] capturing the set would allocate a closure per probe
     without flambda, and probes run once per simulated memory access.
     Their arrays are annotated [int array]: left generic, a comparison
     compiles to the polymorphic [caml_equal] and a store to
     [caml_modify]. *)

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
  let rec scan (data : int array) line last i =
    if i > last then -1
    else if data.(i) = line then i
    else scan data line last (i + 1)

  (* Offset of [line] or of the first empty slot, whichever comes first
     (the packed-prefix invariant makes an empty slot proof of a miss with
     room); -1 when the set is full without [line]. *)
  let rec scan_or_empty (data : int array) line last i =
    if i > last then -1
    else begin
      let v = data.(i) in
      if v = line || v = -1 then i else scan_or_empty data line last (i + 1)
    end

  (* Shift [data.(lo..hi-1)] one slot right.  Sets are at most a few ways
     wide, so an explicit loop beats [Array.blit]'s out-of-line call. *)
  let shift_right (data : int array) lo hi =
    for j = hi downto lo + 1 do
      data.(j) <- data.(j - 1)
    done

  (* Move the element at offset [base + i] to the set's front. *)
  let move_to_front t base i =
    let v = t.data.(base + i) in
    shift_right t.data base (base + i);
    t.data.(base) <- v

  (* A hit behind the MRU slot: refresh it. *)
  let probe_rest t line base =
    let i = scan t.data line (base + t.ways - 1) (base + 1) in
    i >= 0
    && begin
         move_to_front t base (i - base);
         true
       end

  (* The MRU test is the common case and small enough to inline. *)
  let probe t line =
    let base = base_of t line in
    t.data.(base) = line || probe_rest t line base

  let holds t line =
    let base = base_of t line in
    scan t.data line (base + t.ways - 1) base >= 0

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
end

type core_caches = { l1 : Cache.t; l2 : Cache.t }

(* [present] indexes which cores privately cache each line (l1 OR l2),
   so the write-path coherence questions — "does anyone else hold this?"
   and "who must be invalidated?" — are a word test instead of a scan
   over every core's ways.  It is kept exact: insertions set the bit,
   and an eviction clears it only when the victim has left both private
   levels. *)
type t = {
  cfg : Config.t;
  cores : core_caches array;
  l3 : Cache.t;
  present : Bitmat.t;
}

let create (cfg : Config.t) =
  let mk_core _ =
    {
      l1 = Cache.create ~lines:cfg.l1_lines ~ways:cfg.l1_ways;
      l2 = Cache.create ~lines:cfg.l2_lines ~ways:cfg.l2_ways;
    }
  in
  {
    cfg;
    cores = Array.init cfg.cores mk_core;
    l3 = Cache.create ~lines:cfg.l3_lines ~ways:cfg.l3_ways;
    present = Bitmat.create ~cols:cfg.cores ~rows_hint:4096 ();
  }

(* Release every backing array for reuse by the next run's hierarchy;
   [t] must not be used afterwards. *)
let retire t =
  Array.iter
    (fun c ->
      Cache.retire c.l1;
      Cache.retire c.l2)
    t.cores;
  Cache.retire t.l3;
  Bitmat.retire t.present

let evict_fixup t c ~core victim =
  if victim >= 0 && not (Cache.holds c.l1 victim) && not (Cache.holds c.l2 victim)
  then Bitmat.clear t.present ~row:victim ~col:core

(* Invalidate [line] in the private caches of each core of mask word [m]
   (lowest column [col0]) but [core]: a top-level loop, so a write
   upgrade allocates no closure. *)
let rec invalidate_word t ~core ~line col0 m =
  if m <> 0 then begin
    let b = m land -m in
    let v = col0 + Bitmat.ctz_pow2 b in
    if v <> core then begin
      let o = t.cores.(v) in
      Cache.invalidate o.l1 line;
      Cache.invalidate o.l2 line;
      Bitmat.clear t.present ~row:line ~col:v
    end;
    invalidate_word t ~core ~line col0 (m lxor b)
  end

let access t ~core ~line ~write =
  let c = t.cores.(core) in
  (* a write to a line cached elsewhere pays the coherence upgrade: the
     invalidation round-trip goes through the shared level *)
  let upgrade = write && Bitmat.row_has_other t.present ~row:line ~except:core in
  let latency =
    if Cache.probe c.l1 line then t.cfg.l1_latency
    else if Cache.probe c.l2 line then begin
      evict_fixup t c ~core (Cache.insert_evict c.l1 line);
      t.cfg.l2_latency
    end
    else if Cache.probe t.l3 line then begin
      evict_fixup t c ~core (Cache.insert_evict c.l2 line);
      evict_fixup t c ~core (Cache.insert_evict c.l1 line);
      Bitmat.set t.present ~row:line ~col:core;
      t.cfg.l3_latency
    end
    else begin
      Cache.insert t.l3 line;
      evict_fixup t c ~core (Cache.insert_evict c.l2 line);
      evict_fixup t c ~core (Cache.insert_evict c.l1 line);
      Bitmat.set t.present ~row:line ~col:core;
      t.cfg.mem_latency
    end
  in
  if upgrade then begin
    (* invalidate exactly the holders (MESI write-invalidate); when no
       other core caches the line — the common case — the whole loop is
       skipped, where the old code scanned every core unconditionally *)
    for w = 0 to Bitmat.words_per_row t.present - 1 do
      invalidate_word t ~core ~line (w * Bitmat.bits_per_word)
        (Bitmat.row_word t.present ~row:line w)
    done;
    let l3 = t.cfg.Config.l3_latency in
    if latency >= l3 then latency else l3
  end
  else latency
