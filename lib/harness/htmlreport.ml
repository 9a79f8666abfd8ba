open Stx_core
open Stx_sim
module Series = Stx_telemetry.Series
module Episodes = Stx_telemetry.Episodes
module C = Stx_metrics.Collect

type input = {
  workload : string;
  mode : Mode.t;
  seed : int;
  scale : float;
  threads : int;
  policy : Stx_policy.t;
  series : Series.t;
  episodes : Episodes.t list;
  stats : Stats.t;
  registry : Stx_metrics.Registry.t;
  attribution : Stx_trace.Trace.attribution;
  ab_name : int -> string;
}

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* --- chart geometry ----------------------------------------------------
   Window i owns the horizontal cell [i*W/n, (i+1)*W/n); polylines pass
   through cell centers so point series and cell-spanning shading (storm
   rects, heat cells) line up. All coordinates are integer pixels, so the
   SVG text is a function of the integers alone. *)

let chart_w = 720

let cell_x n i = i * chart_w / max 1 n
let cell_w n i = cell_x n (i + 1) - cell_x n i
let center_x n i = ((2 * i) + 1) * chart_w / (2 * max 1 n)

let polyline_points ~h vmax values =
  let n = Array.length values in
  let b = Buffer.create 256 in
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ' ';
      let y = h - (v * (h - 2) / max 1 vmax) - 1 in
      Buffer.add_string b (Printf.sprintf "%d,%d" (center_x n i) y))
    values;
  Buffer.contents b

(* Shaded spans and vertical markers annotate episodes onto a chart. *)
type marks = {
  shade : (int * int * string) list;  (** first, last (incl.), fill *)
  vline : (int * string) list;  (** window, stroke *)
}

let no_marks = { shade = []; vline = [] }

let svg_marks buf ~h ~n m =
  List.iter
    (fun (first, last, fill) ->
      let x0 = cell_x n first in
      let x1 = cell_x n (last + 1) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"%s\" \
            fill-opacity=\"0.25\"/>"
           x0 (max 1 (x1 - x0)) h fill))
    m.shade;
  List.iter
    (fun (w, stroke) ->
      let x = center_x n w in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%d\" y1=\"0\" x2=\"%d\" y2=\"%d\" stroke=\"%s\" \
            stroke-width=\"2\" stroke-dasharray=\"3,2\"/>"
           x x h stroke))
    m.vline

let sparkline buf ~label ?(h = 48) ?(color = "#1565c0") ?(marks = no_marks)
    values =
  let n = Array.length values in
  let vmax = Array.fold_left max 0 values in
  Buffer.add_string buf
    (Printf.sprintf
       "<div class=\"spark\"><div class=\"spark-label\">%s <span \
        class=\"spark-max\">max %d/window</span></div>"
       (esc label) vmax);
  Buffer.add_string buf
    (Printf.sprintf
       "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" \
        role=\"img\" aria-label=\"%s\">"
       chart_w h chart_w h (esc label));
  svg_marks buf ~h ~n marks;
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"0\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>"
       (h - 1) chart_w (h - 1));
  if vmax > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
          stroke-width=\"1.5\"/>"
         (polyline_points ~h vmax values) color);
  Buffer.add_string buf "</svg></div>\n"

(* Per-core occupancy: one row of cells per core, darkness = busy
   fraction of the window. *)
let heat_strip buf (s : Series.t) =
  let n = Array.length s.windows in
  let row_h = 13 in
  let h = s.threads * row_h in
  Buffer.add_string buf
    "<div class=\"spark\"><div class=\"spark-label\">per-core busy fraction \
     (row per core, darker = busier)</div>";
  Buffer.add_string buf
    (Printf.sprintf
       "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" role=\"img\" \
        aria-label=\"per-core busy fraction\">"
       chart_w h chart_w h);
  for core = 0 to s.threads - 1 do
    Array.iteri
      (fun i (w : Series.window) ->
        let busy = if core < Array.length w.busy then w.busy.(core) else 0 in
        let pct = min 100 (busy * 100 / max 1 s.width) in
        if pct > 0 then
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                fill=\"#0d47a1\" fill-opacity=\"%d.%02d\"/>"
               (cell_x n i) (core * row_h)
               (max 1 (cell_w n i))
               (row_h - 1) (pct / 100) (pct mod 100)))
      s.windows
  done;
  Buffer.add_string buf "</svg></div>\n"

let episode_marks episodes =
  List.fold_left
    (fun m e ->
      match e with
      | Episodes.Conflict_storm { first; last; _ } ->
        { m with shade = (first, last, "#e53935") :: m.shade }
      | Episodes.Saturation { onset } ->
        { m with vline = (onset, "#6a1b9a") :: m.vline }
      | Episodes.Tier_shift { window; _ } ->
        { m with vline = (window, "#ef6c00") :: m.vline })
    no_marks episodes

(* --- tables ------------------------------------------------------------ *)

let table buf ~cls headers rows =
  Buffer.add_string buf (Printf.sprintf "<table class=\"%s\"><tr>" cls);
  List.iter
    (fun hd -> Buffer.add_string buf ("<th>" ^ esc hd ^ "</th>"))
    headers;
  Buffer.add_string buf "</tr>";
  List.iter
    (fun row ->
      Buffer.add_string buf "<tr>";
      List.iter
        (fun cell -> Buffer.add_string buf ("<td>" ^ esc cell ^ "</td>"))
        row;
      Buffer.add_string buf "</tr>")
    rows;
  Buffer.add_string buf "</table>\n"

let hotspot_rows pairs =
  let top = List.filteri (fun i _ -> i < 10) pairs in
  let vmax = List.fold_left (fun m (_, c) -> max m c) 1 top in
  List.map
    (fun (id, c) ->
      let bar = String.make (max 1 (c * 30 / vmax)) '#' in
      [ string_of_int id; string_of_int c; bar ])
    top

(* --- phase profile ----------------------------------------------------- *)

let phases =
  [
    (C.Prefix, "prefix", "#1565c0");
    (C.Lock_wait, "lock wait", "#ef6c00");
    (C.Suffix, "suffix", "#c62828");
    (C.Irrevocable, "irrevocable", "#4a148c");
    (C.Stm, "stm", "#00695c");
    (C.Wasted, "wasted", "#9e9e9e");
    (C.Backoff, "backoff", "#cfcfcf");
  ]

let phase_profile buf inp =
  let abs = C.abs_profiled inp.registry in
  if abs <> [] then begin
    Buffer.add_string buf "<h2>Per-atomic-block phase profile</h2>\n";
    Buffer.add_string buf "<div class=\"legend\">";
    List.iter
      (fun (_, name, color) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<span class=\"key\"><span class=\"swatch\" \
              style=\"background:%s\"></span>%s</span>"
             color (esc name)))
      phases;
    Buffer.add_string buf "</div>\n";
    let cycles ab = List.map (fun (ph, _, _) -> C.phase_cycles inp.registry ~ab ph) phases in
    let totals = List.map (fun ab -> (ab, cycles ab)) abs in
    let tmax =
      List.fold_left
        (fun m (_, cs) -> max m (List.fold_left ( + ) 0 cs))
        1 totals
    in
    List.iter
      (fun (ab, cs) ->
        let total = List.fold_left ( + ) 0 cs in
        Buffer.add_string buf
          (Printf.sprintf
             "<div class=\"bar-row\"><div class=\"bar-label\">%s</div>"
             (esc (inp.ab_name ab)));
        Buffer.add_string buf
          (Printf.sprintf
             "<svg width=\"%d\" height=\"18\" viewBox=\"0 0 %d 18\">" chart_w
             chart_w);
        let x = ref 0 in
        List.iter2
          (fun (_, name, color) c ->
            let w = c * chart_w / tmax in
            if w > 0 then begin
              Buffer.add_string buf
                (Printf.sprintf
                   "<rect x=\"%d\" y=\"1\" width=\"%d\" height=\"16\" \
                    fill=\"%s\"><title>%s: %d cycles</title></rect>"
                   !x w color (esc name) c);
              x := !x + w
            end)
          phases cs;
        Buffer.add_string buf
          (Printf.sprintf "</svg><div class=\"bar-total\">%d</div></div>\n"
             total))
      totals;
    table buf ~cls:"num"
      ("atomic block" :: List.map (fun (_, n, _) -> n) phases)
      (List.map
         (fun (ab, cs) -> inp.ab_name ab :: List.map string_of_int cs)
         totals)
  end

(* --- document ----------------------------------------------------------- *)

let css =
  "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:820px;\
   color:#212121}\n\
   h1{font-size:20px;border-bottom:2px solid #1565c0;padding-bottom:6px}\n\
   h2{font-size:16px;margin-top:28px}\n\
   table{border-collapse:collapse;margin:8px 0}\n\
   th,td{border:1px solid #ddd;padding:3px 8px;text-align:left}\n\
   th{background:#f5f5f5}\n\
   table.num td{text-align:right;font-variant-numeric:tabular-nums}\n\
   table.num td:first-child{text-align:left}\n\
   .spark{margin:10px 0}\n\
   .spark-label{font-size:12px;color:#555;margin-bottom:2px}\n\
   .spark-max{color:#999}\n\
   .legend{font-size:12px;margin:6px 0}\n\
   .key{margin-right:12px}\n\
   .swatch{display:inline-block;width:10px;height:10px;margin-right:4px}\n\
   .bar-row{display:flex;align-items:center;gap:8px;margin:2px 0}\n\
   .bar-label{width:180px;font-size:12px;text-align:right;\
   overflow:hidden;text-overflow:ellipsis;white-space:nowrap}\n\
   .bar-total{font-size:12px;color:#555}\n\
   .episode{padding:4px 8px;margin:4px 0;border-left:4px solid #6a1b9a;\
   background:#f3e5f5;font-size:13px}\n\
   .episode.storm{border-color:#e53935;background:#ffebee}\n\
   .episode.shift{border-color:#ef6c00;background:#fff3e0}\n\
   .muted{color:#777;font-size:12px}\n"

let render inp =
  let s = inp.stats in
  let series = inp.series in
  let buf = Buffer.create 16384 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  pf "<title>stx run report: %s / %s</title>\n" (esc inp.workload)
    (esc (Mode.to_string inp.mode));
  pf "<style>\n%s</style>\n</head>\n<body>\n" css;
  pf "<h1>stx run report: %s under %s</h1>\n" (esc inp.workload)
    (esc (Mode.to_string inp.mode));

  (* run parameters and the policy bundle *)
  pf "<h2>Run</h2>\n";
  table buf ~cls:"params"
    [ "parameter"; "value" ]
    [
      [ "workload"; inp.workload ];
      [ "mode"; Mode.to_string inp.mode ];
      [ "seed"; string_of_int inp.seed ];
      [ "scale"; Printf.sprintf "%g" inp.scale ];
      [ "threads"; string_of_int inp.threads ];
      [ "policy"; Stx_policy.label inp.policy ];
      [
        "resolution";
        Stx_policy.Resolution.to_string inp.policy.Stx_policy.resolution;
      ];
      [
        "capacity"; Stx_policy.Capacity.to_string inp.policy.Stx_policy.capacity;
      ];
      [
        "fallback"; Stx_policy.Fallback.to_string inp.policy.Stx_policy.fallback;
      ];
      [
        "telemetry window";
        Printf.sprintf "%d cycles x %d windows" series.Series.width
          (Series.length series);
      ];
    ];

  (* headline statistics *)
  pf "<h2>Outcome</h2>\n";
  let pct a b = Printf.sprintf "%.1f%%" (100. *. float a /. float (max 1 b)) in
  table buf ~cls:"num"
    [ "metric"; "value" ]
    [
      [ "total cycles"; string_of_int s.Stats.total_cycles ];
      [ "commits"; string_of_int s.Stats.commits ];
      [ "aborts"; string_of_int s.Stats.aborts ];
      [ "abort rate"; pct s.Stats.aborts (s.Stats.commits + s.Stats.aborts) ];
      [ "conflict aborts"; string_of_int s.Stats.conflict_aborts ];
      [ "lock-subscription aborts"; string_of_int s.Stats.lock_sub_aborts ];
      [ "capacity aborts"; string_of_int s.Stats.capacity_aborts ];
      [ "stm-conflict aborts"; string_of_int s.Stats.stm_conflict_aborts ];
      [ "stm commits"; string_of_int s.Stats.stm_commits ];
      [ "irrevocable entries"; string_of_int s.Stats.irrevocable_entries ];
      [ "advisory-lock acquires"; string_of_int s.Stats.lock_acquires ];
      [ "advisory-lock timeouts"; string_of_int s.Stats.lock_timeouts ];
      [ "wasted cycles"; string_of_int s.Stats.wasted_cycles ];
    ];

  (* episodes *)
  pf "<h2>Episodes</h2>\n";
  if inp.episodes = [] then pf "<p class=\"muted\">none detected</p>\n"
  else
    List.iter
      (fun e ->
        let cls =
          match e with
          | Episodes.Conflict_storm _ -> "episode storm"
          | Episodes.Saturation _ -> "episode"
          | Episodes.Tier_shift _ -> "episode shift"
        in
        pf "<div class=\"%s\">%s</div>\n" cls
          (esc (Episodes.to_string series e)))
      inp.episodes;

  (* window series *)
  pf "<h2>Time series (%d-cycle windows)</h2>\n" series.Series.width;
  let marks = episode_marks inp.episodes in
  let col f = Array.map f series.Series.windows in
  let get c = col (fun w -> Series.get w c) in
  let any c = Array.exists (fun w -> Series.get w c > 0) series.Series.windows in
  sparkline buf ~label:"commits (all tiers)" ~marks (col Series.commits);
  sparkline buf ~label:"aborts (all kinds)" ~color:"#c62828" ~marks
    (col Series.aborts);
  sparkline buf ~label:"conflict aborts" ~color:"#e53935" ~marks
    (get Series.conflict_aborts);
  sparkline buf ~label:"advisory-lock waits begun" ~color:"#ef6c00"
    (get Series.lock_waits);
  if any Series.stm_cycles then
    sparkline buf ~label:"stm-tier occupancy (cycles)" ~color:"#00695c" ~marks
      (get Series.stm_cycles);
  if any Series.lock_cycles then
    sparkline buf ~label:"global-lock occupancy (cycles)" ~color:"#4a148c"
      ~marks
      (get Series.lock_cycles);
  if any Series.offered then begin
    sparkline buf ~label:"offered requests" ~color:"#2e7d32"
      (get Series.offered);
    sparkline buf ~label:"completed requests" ~color:"#1565c0" ~marks
      (get Series.completed)
  end;
  heat_strip buf series;

  (* conflict hot spots *)
  let a = inp.attribution in
  pf "<h2>Conflict hot spots</h2>\n";
  pf
    "<p class=\"muted\">%d conflict aborts in the trace, %d without an \
     attributable aggressor</p>\n"
    a.Stx_trace.Trace.conflict_aborts a.Stx_trace.Trace.unattributed;
  if a.Stx_trace.Trace.by_line <> [] then
    table buf ~cls:"num"
      [ "cache line"; "conflict aborts"; "" ]
      (hotspot_rows a.Stx_trace.Trace.by_line);
  if a.Stx_trace.Trace.by_pc <> [] then
    table buf ~cls:"num"
      [ "PC tag"; "conflict aborts"; "" ]
      (hotspot_rows a.Stx_trace.Trace.by_pc);
  if a.Stx_trace.Trace.by_ab <> [] then
    table buf ~cls:"num"
      [ "atomic block"; "conflict aborts"; "" ]
      (List.map
         (fun row ->
           match row with
           | [ id; c; bar ] -> (
             match int_of_string_opt id with
             | Some ab -> [ inp.ab_name ab; c; bar ]
             | None -> row)
           | row -> row)
         (hotspot_rows a.Stx_trace.Trace.by_ab));

  phase_profile buf inp;

  pf "</body>\n</html>\n";
  Buffer.contents buf
