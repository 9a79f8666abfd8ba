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
    let f v =
      if v <> core then begin
        let o = t.cores.(v) in
        Cache.invalidate o.l1 line;
        Cache.invalidate o.l2 line;
        Bitmat.clear t.present ~row:line ~col:v
      end
    in
    for w = 0 to Bitmat.words_per_row t.present - 1 do
      Bitmat.iter_word f
        (w * Bitmat.bits_per_word)
        (Bitmat.row_word t.present ~row:line w)
    done;
    max latency t.cfg.Config.l3_latency
  end
  else latency
