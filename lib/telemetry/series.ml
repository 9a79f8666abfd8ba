module Hist = Stx_metrics.Hist
module Json = Stx_metrics.Json

type window = {
  hw_commits : int;
  irrevocable_commits : int;
  stm_commits : int;
  conflict_aborts : int;
  locksub_aborts : int;
  capacity_aborts : int;
  explicit_aborts : int;
  stm_conflict_aborts : int;
  stm_aborts : int;
  lock_waits : int;
  lock_acquires : int;
  lock_timeouts : int;
  busy : int array;
  stm_cycles : int;
  lock_cycles : int;
  offered : int;
  completed : int;
  queue_peak : int;
  sojourn : Hist.t;
  conf_lines : (int * int) list;
  conf_pcs : (int * int) list;
}

type t = { width : int; threads : int; windows : window array }

let length t = Array.length t.windows
let commits w = w.hw_commits + w.irrevocable_commits + w.stm_commits

let aborts w =
  w.conflict_aborts + w.locksub_aborts + w.capacity_aborts + w.explicit_aborts
  + w.stm_conflict_aborts + w.stm_aborts

let busy_total w = Array.fold_left ( + ) 0 w.busy
let htm_cycles w = busy_total w - w.stm_cycles - w.lock_cycles

(* highest count wins; ties go to the lower id, so the choice is a
   function of the tally alone *)
let top tallies =
  List.fold_left
    (fun best (id, c) ->
      match best with
      | Some (_, bc) when bc >= c -> best
      | _ -> Some (id, c))
    None tallies

let top_line w = top w.conf_lines
let top_pc w = top w.conf_pcs

(* --- merge ------------------------------------------------------------ *)

let merge_tallies a b =
  let tbl = Hashtbl.create 16 in
  let add (id, c) =
    Hashtbl.replace tbl id (c + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun id c acc -> (id, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let merge_window a b =
  {
    hw_commits = a.hw_commits + b.hw_commits;
    irrevocable_commits = a.irrevocable_commits + b.irrevocable_commits;
    stm_commits = a.stm_commits + b.stm_commits;
    conflict_aborts = a.conflict_aborts + b.conflict_aborts;
    locksub_aborts = a.locksub_aborts + b.locksub_aborts;
    capacity_aborts = a.capacity_aborts + b.capacity_aborts;
    explicit_aborts = a.explicit_aborts + b.explicit_aborts;
    stm_conflict_aborts = a.stm_conflict_aborts + b.stm_conflict_aborts;
    stm_aborts = a.stm_aborts + b.stm_aborts;
    lock_waits = a.lock_waits + b.lock_waits;
    lock_acquires = a.lock_acquires + b.lock_acquires;
    lock_timeouts = a.lock_timeouts + b.lock_timeouts;
    busy = Array.init (Array.length a.busy) (fun i -> a.busy.(i) + b.busy.(i));
    stm_cycles = a.stm_cycles + b.stm_cycles;
    lock_cycles = a.lock_cycles + b.lock_cycles;
    offered = a.offered + b.offered;
    completed = a.completed + b.completed;
    queue_peak = max a.queue_peak b.queue_peak;
    sojourn = Hist.merge a.sojourn b.sojourn;
    conf_lines = merge_tallies a.conf_lines b.conf_lines;
    conf_pcs = merge_tallies a.conf_pcs b.conf_pcs;
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
    let eq what x y = if x <> y then note "window %d %s: %d vs %d" i what x y in
    eq "hw_commits" wa.hw_commits wb.hw_commits;
    eq "irrevocable_commits" wa.irrevocable_commits wb.irrevocable_commits;
    eq "stm_commits" wa.stm_commits wb.stm_commits;
    eq "conflict_aborts" wa.conflict_aborts wb.conflict_aborts;
    eq "locksub_aborts" wa.locksub_aborts wb.locksub_aborts;
    eq "capacity_aborts" wa.capacity_aborts wb.capacity_aborts;
    eq "explicit_aborts" wa.explicit_aborts wb.explicit_aborts;
    eq "stm_conflict_aborts" wa.stm_conflict_aborts wb.stm_conflict_aborts;
    eq "stm_aborts" wa.stm_aborts wb.stm_aborts;
    eq "lock_waits" wa.lock_waits wb.lock_waits;
    eq "lock_acquires" wa.lock_acquires wb.lock_acquires;
    eq "lock_timeouts" wa.lock_timeouts wb.lock_timeouts;
    eq "stm_cycles" wa.stm_cycles wb.stm_cycles;
    eq "lock_cycles" wa.lock_cycles wb.lock_cycles;
    eq "offered" wa.offered wb.offered;
    eq "completed" wa.completed wb.completed;
    eq "queue_peak" wa.queue_peak wb.queue_peak;
    if wa.busy <> wb.busy then note "window %d busy arrays differ" i;
    if not (Hist.equal wa.sojourn wb.sojourn) then
      note "window %d sojourn sketches differ" i;
    if wa.conf_lines <> wb.conf_lines then note "window %d line tallies differ" i;
    if wa.conf_pcs <> wb.conf_pcs then note "window %d pc tallies differ" i
  done;
  List.rev !errs

let equal a b = diff a b = []

(* --- CSV -------------------------------------------------------------- *)

let one_line s =
  String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s

let to_csv ?(meta = []) t =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter (fun (k, v) -> pf "# %s=%s\n" (one_line k) (one_line v)) meta;
  pf "# width=%d threads=%d windows=%d\n" t.width t.threads
    (Array.length t.windows);
  pf
    "window,start,commits,hw_commits,irrevocable_commits,stm_commits,aborts,conflict_aborts,locksub_aborts,capacity_aborts,explicit_aborts,stm_conflict_aborts,stm_aborts,lock_waits,lock_acquires,lock_timeouts,busy_cycles,stm_cycles,lock_cycles,offered,completed,queue_peak,sojourn_p50,sojourn_p99,top_line,top_pc";
  for c = 0 to t.threads - 1 do
    pf ",busy_c%d" c
  done;
  pf "\n";
  Array.iteri
    (fun i w ->
      let opt = function Some (id, _) -> string_of_int id | None -> "-" in
      pf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s"
        i (i * t.width) (commits w) w.hw_commits w.irrevocable_commits
        w.stm_commits (aborts w) w.conflict_aborts w.locksub_aborts
        w.capacity_aborts w.explicit_aborts w.stm_conflict_aborts w.stm_aborts
        w.lock_waits w.lock_acquires w.lock_timeouts (busy_total w)
        w.stm_cycles w.lock_cycles w.offered w.completed w.queue_peak
        (Hist.p50 w.sojourn) (Hist.p99 w.sojourn) (opt (top_line w))
        (opt (top_pc w));
      Array.iter (fun c -> pf ",%d" c) w.busy;
      pf "\n")
    t.windows;
  Buffer.contents b

(* --- JSONL ------------------------------------------------------------ *)

let schema = "stx-telemetry"
let version = 1

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("min", Json.Int (Hist.min_value h));
      ("max", Json.Int (Hist.max_value h));
      ( "buckets",
        Json.List
          (List.map
             (fun (k, c, m) -> Json.List [ Json.Int k; Json.Int c; Json.Int m ])
             (Hist.buckets_full h)) );
    ]

let tallies_json l =
  Json.List (List.map (fun (id, c) -> Json.List [ Json.Int id; Json.Int c ]) l)

let window_json i w =
  Json.Obj
    [
      ("window", Json.Int i);
      ("hw_commits", Json.Int w.hw_commits);
      ("irrevocable_commits", Json.Int w.irrevocable_commits);
      ("stm_commits", Json.Int w.stm_commits);
      ("conflict_aborts", Json.Int w.conflict_aborts);
      ("locksub_aborts", Json.Int w.locksub_aborts);
      ("capacity_aborts", Json.Int w.capacity_aborts);
      ("explicit_aborts", Json.Int w.explicit_aborts);
      ("stm_conflict_aborts", Json.Int w.stm_conflict_aborts);
      ("stm_aborts", Json.Int w.stm_aborts);
      ("lock_waits", Json.Int w.lock_waits);
      ("lock_acquires", Json.Int w.lock_acquires);
      ("lock_timeouts", Json.Int w.lock_timeouts);
      ("busy", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) w.busy)));
      ("stm_cycles", Json.Int w.stm_cycles);
      ("lock_cycles", Json.Int w.lock_cycles);
      ("offered", Json.Int w.offered);
      ("completed", Json.Int w.completed);
      ("queue_peak", Json.Int w.queue_peak);
      ("sojourn", hist_json w.sojourn);
      ("conf_lines", tallies_json w.conf_lines);
      ("conf_pcs", tallies_json w.conf_pcs);
    ]

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
