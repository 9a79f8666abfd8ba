module Hist = Stx_metrics.Hist
module Json = Stx_metrics.Json
module Stat = Stx_util.Stat

type column = { index : int; name : string }

let col index name = { index; name }
let hw_commits = col 0 "hw_commits"
let irrevocable_commits = col 1 "irrevocable_commits"
let stm_commits = col 2 "stm_commits"
let conflict_aborts = col 3 "conflict_aborts"
let locksub_aborts = col 4 "locksub_aborts"
let capacity_aborts = col 5 "capacity_aborts"
let explicit_aborts = col 6 "explicit_aborts"
let stm_conflict_aborts = col 7 "stm_conflict_aborts"
let stm_aborts = col 8 "stm_aborts"
let lock_waits = col 9 "lock_waits"
let lock_acquires = col 10 "lock_acquires"
let lock_timeouts = col 11 "lock_timeouts"
let stm_cycles = col 12 "stm_cycles"
let lock_cycles = col 13 "lock_cycles"
let offered = col 14 "offered"
let completed = col 15 "completed"
let queue_peak = col 16 "queue_peak"

let columns =
  [
    hw_commits; irrevocable_commits; stm_commits; conflict_aborts; locksub_aborts;
    capacity_aborts; explicit_aborts; stm_conflict_aborts; stm_aborts; lock_waits;
    lock_acquires; lock_timeouts; stm_cycles; lock_cycles; offered; completed;
    queue_peak;
  ]

type window = {
  counts : int array;
  busy : int array;
  sojourn : Hist.t;
  conf_lines : (int, int) Hashtbl.t;
  conf_pcs : (int, int) Hashtbl.t;
}

type t = { width : int; threads : int; windows : window array }

let empty ~threads =
  {
    counts = Array.make (List.length columns) 0;
    busy = Array.make threads 0;
    sojourn = Hist.create ();
    conf_lines = Hashtbl.create 4;
    conf_pcs = Hashtbl.create 4;
  }

let get w c = w.counts.(c.index)
let length t = Array.length t.windows
let commits w = get w hw_commits + get w irrevocable_commits + get w stm_commits

let aborts w =
  get w conflict_aborts + get w locksub_aborts + get w capacity_aborts
  + get w explicit_aborts + get w stm_conflict_aborts + get w stm_aborts

let busy_total w = Array.fold_left ( + ) 0 w.busy
let htm_cycles w = busy_total w - get w stm_cycles - get w lock_cycles

(* --- merge ------------------------------------------------------------ *)

let merge_window a b =
  let counts = Array.map2 ( + ) a.counts b.counts in
  counts.(queue_peak.index) <- max (get a queue_peak) (get b queue_peak);
  let tally x y =
    let t = Hashtbl.create 16 in
    Stat.merge_into t x;
    Stat.merge_into t y;
    t
  in
  {
    counts;
    busy = Array.map2 ( + ) a.busy b.busy;
    sojourn = Hist.merge a.sojourn b.sojourn;
    conf_lines = tally a.conf_lines b.conf_lines;
    conf_pcs = tally a.conf_pcs b.conf_pcs;
  }

let merge a b =
  if a.width <> b.width then
    invalid_arg "Series.merge: window widths differ"
  else if a.threads <> b.threads then
    invalid_arg "Series.merge: thread counts differ";
  let n = max (Array.length a.windows) (Array.length b.windows) in
  let pick s i = if i < Array.length s.windows then Some s.windows.(i) else None in
  let windows =
    Array.init n (fun i ->
        match (pick a i, pick b i) with
        | Some wa, Some wb -> merge_window wa wb
        | Some w, None | None, Some w -> w
        | None, None -> assert false)
  in
  { width = a.width; threads = a.threads; windows }

(* --- equality --------------------------------------------------------- *)

let diff a b =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if a.width <> b.width then note "width: %d vs %d" a.width b.width;
  if a.threads <> b.threads then note "threads: %d vs %d" a.threads b.threads;
  if Array.length a.windows <> Array.length b.windows then
    note "windows: %d vs %d" (Array.length a.windows) (Array.length b.windows);
  let n = min (Array.length a.windows) (Array.length b.windows) in
  for i = 0 to n - 1 do
    let wa = a.windows.(i) and wb = b.windows.(i) in
    List.iter
      (fun c ->
        if get wa c <> get wb c then
          note "window %d %s: %d vs %d" i c.name (get wa c) (get wb c))
      columns;
    if wa.busy <> wb.busy then note "window %d busy arrays differ" i;
    if not (Hist.equal wa.sojourn wb.sojourn) then
      note "window %d sojourn sketches differ" i;
    if Stat.by_key wa.conf_lines <> Stat.by_key wb.conf_lines then
      note "window %d line tallies differ" i;
    if Stat.by_key wa.conf_pcs <> Stat.by_key wb.conf_pcs then
      note "window %d pc tallies differ" i
  done;
  List.rev !errs

let equal a b = diff a b = []

(* --- CSV -------------------------------------------------------------- *)

let one_line s =
  String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s

(* The CSV's derived columns, each written just before the stored
   column paired with it. The JSONL [busy] array sits before
   [stm_cycles] too. *)
let derived =
  [
    (hw_commits, "commits", commits);
    (conflict_aborts, "aborts", aborts);
    (stm_cycles, "busy_cycles", busy_total);
  ]

let to_csv ?(meta = []) t =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let each_column derived_cell stored_cell =
    List.iter
      (fun c ->
        List.iter (fun (at, name, f) -> if at == c then derived_cell name f) derived;
        stored_cell c)
      columns
  in
  List.iter (fun (k, v) -> pf "# %s=%s\n" (one_line k) (one_line v)) meta;
  pf "# width=%d threads=%d windows=%d\n" t.width t.threads
    (Array.length t.windows);
  pf "window,start";
  each_column (fun name _ -> pf ",%s" name) (fun c -> pf ",%s" c.name);
  pf ",sojourn_p50,sojourn_p99,top_line,top_pc";
  for c = 0 to t.threads - 1 do
    pf ",busy_c%d" c
  done;
  pf "\n";
  let top tally =
    match Stat.top tally with Some (id, _) -> string_of_int id | None -> "-"
  in
  Array.iteri
    (fun i w ->
      pf "%d,%d" i (i * t.width);
      each_column (fun _ f -> pf ",%d" (f w)) (fun c -> pf ",%d" (get w c));
      pf ",%d,%d,%s,%s" (Hist.p50 w.sojourn) (Hist.p99 w.sojourn)
        (top w.conf_lines) (top w.conf_pcs);
      Array.iter (fun c -> pf ",%d" c) w.busy;
      pf "\n")
    t.windows;
  Buffer.contents b

(* --- JSONL ------------------------------------------------------------ *)

let schema = "stx-telemetry"
let version = 1

let tally_json tally =
  Json.List
    (List.map (fun (id, c) -> Json.List [ Json.Int id; Json.Int c ]) (Stat.by_key tally))

let window_json i w =
  let column c =
    (if c == stm_cycles then
       [ ("busy", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) w.busy))) ]
     else [])
    @ [ (c.name, Json.Int (get w c)) ]
  in
  Json.Obj
    ((("window", Json.Int i) :: List.concat_map column columns)
    @ [
        ("sojourn", Json.Obj (Hist.json_fields w.sojourn));
        ("conf_lines", tally_json w.conf_lines);
        ("conf_pcs", tally_json w.conf_pcs);
      ])

let to_jsonl ?(meta = []) t =
  let b = Buffer.create 4096 in
  let header =
    Json.Obj
      ([
         ("schema", Json.Str schema);
         ("version", Json.Int version);
         ("width", Json.Int t.width);
         ("threads", Json.Int t.threads);
         ("windows", Json.Int (Array.length t.windows));
       ]
      @ List.map (fun (k, v) -> (k, Json.Str v)) meta)
  in
  Buffer.add_string b (Json.to_string header);
  Buffer.add_char b '\n';
  Array.iteri
    (fun i w ->
      Buffer.add_string b (Json.to_string (window_json i w));
      Buffer.add_char b '\n')
    t.windows;
  Buffer.contents b
