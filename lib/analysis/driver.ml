(* bind the analysis-side line plane before [open Stx_tir] shadows the
   short name with the PC-assignment Layout of the IR *)
module Lplane = Layout

open Stx_tir
open Stx_compiler

type t = {
  a_name : string;
  a_pipeline : Pipeline.t;
  a_summary : Summary.t;
  a_graph : Conflict.t;
  a_plane : Lplane.t;
  a_capacity : Stx_policy.Capacity.t option;
  a_diags : Diag.t list;
}

type format = Text | Tsv

let analyze ?(name = "program") ?resolution ?capacity (p : Pipeline.t) =
  Verify.program p.Pipeline.prog;
  let summary = Summary.compute p.Pipeline.prog p.Pipeline.dsa in
  let graph =
    Conflict.compute ?resolution p.Pipeline.prog p.Pipeline.dsa summary
  in
  let plane = Lplane.build p.Pipeline.prog p.Pipeline.dsa graph in
  let diags = Lints.all ?capacity ~plane p summary graph in
  {
    a_name = name;
    a_pipeline = p;
    a_summary = summary;
    a_graph = graph;
    a_plane = plane;
    a_capacity = capacity;
    a_diags = diags;
  }

let has_errors t = Diag.has_errors t.a_diags

let mode_label = function
  | Anchors.Dsa_guided -> "dsa"
  | Anchors.Naive -> "naive"

let render_text t =
  let buf = Buffer.create 1024 in
  let p = t.a_pipeline in
  let prog = p.Pipeline.prog in
  let nabs = Array.length prog.Ir.atomics in
  let resolution_label =
    match Conflict.resolution t.a_graph with
    | Stx_policy.Resolution.Requester_wins -> "" (* the default: omit *)
    | r -> ", resolution=" ^ Stx_policy.Resolution.to_string r
  in
  Buffer.add_string buf
    (Printf.sprintf "== static conflict analysis: %s (mode=%s%s%s) ==\n"
       t.a_name (mode_label p.Pipeline.mode)
       (if p.Pipeline.instrumented then "" else ", uninstrumented")
       resolution_label);
  Buffer.add_string buf "-- atomic-block footprints (whole-program nodes) --\n";
  Array.iter
    (fun (a : Ir.atomic) ->
      let r, w = Conflict.footprint t.a_graph ~ab:a.Ir.ab_id in
      Buffer.add_string buf
        (Printf.sprintf "  ab%d %-16s reads=%-3d writes=%-3d%s\n" a.Ir.ab_id
           a.Ir.ab_name r w
           (if p.Pipeline.read_only.(a.Ir.ab_id) then "  [read-only]" else "")))
    prog.Ir.atomics;
  let orr, ow = Conflict.outside_footprint t.a_graph in
  Buffer.add_string buf
    (Printf.sprintf "  outside%-13s reads=%-3d writes=%-3d\n" "" orr ow);
  Buffer.add_string buf "-- conflict graph (row dooms column) --\n";
  Buffer.add_string buf "          ";
  for j = 0 to nabs - 1 do
    Buffer.add_string buf (Printf.sprintf " ab%-3d" j)
  done;
  Buffer.add_char buf '\n';
  let row label src =
    Buffer.add_string buf (Printf.sprintf "  %-8s" label);
    for j = 0 to nabs - 1 do
      Buffer.add_string buf
        (if Conflict.may_doom t.a_graph ~src ~dst:j then "  x   " else "  .   ")
    done;
    Buffer.add_char buf '\n'
  in
  for i = 0 to nabs - 1 do
    row (Printf.sprintf "ab%d" i) (Conflict.Ab i)
  done;
  row "outside" Conflict.Outside;
  Buffer.add_string buf
    (Printf.sprintf "-- diagnostics: %d error(s), %d warning(s), %d info --\n"
       (Diag.count Diag.Error t.a_diags)
       (Diag.count Diag.Warning t.a_diags)
       (Diag.count Diag.Info t.a_diags));
  List.iter
    (fun d ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (Diag.render_text d);
      Buffer.add_char buf '\n')
    t.a_diags;
  Buffer.contents buf

let render_tsv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("name\t" ^ Diag.tsv_header ^ "\n");
  List.iter
    (fun d ->
      Buffer.add_string buf (t.a_name ^ "\t" ^ Diag.render_tsv d ^ "\n"))
    t.a_diags;
  Buffer.contents buf

let render ?(format = Text) t =
  match format with Text -> render_text t | Tsv -> render_tsv t

(* the line-granular layout section: must-execute line-footprint bounds
   per block and the line-level refinement of every conflict edge *)
let render_layout ?(format = Text) t =
  let prog = t.a_pipeline.Pipeline.prog in
  let plane = t.a_plane in
  let pair_stats prs =
    List.fold_left
      (fun (tr, fa) (p : Lplane.pair) ->
        match p.Lplane.p_sharing with
        | Lplane.True_sharing -> (tr + 1, fa)
        | Lplane.False_sharing -> (tr, fa + 1))
      (0, 0) prs
  in
  match format with
  | Text ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "== line plane: %s (%d words/line) ==\n" t.a_name
         (Lplane.words_per_line plane));
    Buffer.add_string buf
      "-- must-execute line footprints (lower bounds) --\n";
    Array.iter
      (fun (a : Ir.atomic) ->
        let b = Lplane.capacity_bound plane ~ab:a.Ir.ab_id in
        Buffer.add_string buf
          (Printf.sprintf "  ab%d %-16s reads>=%-3d writes>=%-3d%s\n"
             a.Ir.ab_id a.Ir.ab_name b.Lplane.lb_min_read
             b.Lplane.lb_min_write
             (if b.Lplane.lb_aliased then "  [aliased placements]" else "")))
      prog.Ir.atomics;
    (match t.a_capacity with
    | Some (Stx_policy.Capacity.Bounded { read_lines; write_lines }) ->
      Buffer.add_string buf
        (Printf.sprintf "  checked against bounded:%d:%d (STX107)\n"
           read_lines write_lines)
    | Some Stx_policy.Capacity.Unbounded | None -> ());
    Buffer.add_string buf
      "-- conflict-edge refinement (line-colliding field pairs) --\n";
    List.iter
      (fun (src, dst, prs) ->
        let tr, fa = pair_stats prs in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s -> ab%-3d %2d pair(s): %d true, %d false%s\n"
             (Validate.source_label src) dst (List.length prs) tr fa
             (if prs = [] then "  [edge refined away: no line collision]"
              else "")))
      (Lplane.edges plane);
    Buffer.contents buf
  | Tsv ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "name\tkind\tab_or_src\tdst\tread_or_pairs\twrite_or_true\taliased_or_false\n";
    Array.iter
      (fun (a : Ir.atomic) ->
        let b = Lplane.capacity_bound plane ~ab:a.Ir.ab_id in
        Buffer.add_string buf
          (Printf.sprintf "%s\tbound\tab%d\t-\t%d\t%d\t%b\n" t.a_name
             a.Ir.ab_id b.Lplane.lb_min_read b.Lplane.lb_min_write
             b.Lplane.lb_aliased))
      prog.Ir.atomics;
    List.iter
      (fun (src, dst, prs) ->
        let tr, fa = pair_stats prs in
        Buffer.add_string buf
          (Printf.sprintf "%s\tlineedge\t%s\tab%d\t%d\t%d\t%d\n" t.a_name
             (Validate.source_label src) dst (List.length prs) tr fa))
      (Lplane.edges plane);
    Buffer.contents buf

let validate t trace =
  Validate.run ~ctx:(t.a_pipeline, t.a_plane) t.a_graph trace

let render_validation ?(format = Text) t (v : Validate.t) =
  match format with
  | Text ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "== trace validation: %s ==\n" t.a_name);
    Buffer.add_string buf
      (Printf.sprintf
         "conflict aborts: %d (unattributed %d, ambiguous %d)\n"
         v.Validate.v_conflict_aborts v.Validate.v_unattributed
         v.Validate.v_ambiguous);
    List.iter
      (fun (e : Validate.edge) ->
        let sharing =
          if e.Validate.e_true + e.Validate.e_false + e.Validate.e_unknown = 0
          then ""
          else
            Printf.sprintf "  [%d true / %d false / %d unresolved]"
              e.Validate.e_true e.Validate.e_false e.Validate.e_unknown
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s -> ab%-3d %6d abort(s)%s\n"
             (Validate.source_label e.Validate.e_src)
             e.Validate.e_dst e.Validate.e_count sharing))
      v.Validate.v_edges;
    let attributed = v.Validate.v_true_sharing + v.Validate.v_false_sharing in
    if attributed + v.Validate.v_sharing_unknown > 0 then begin
      Buffer.add_string buf
        (Printf.sprintf
           "line attribution: %d true sharing, %d false sharing \
            (false-sharing fraction %.2f), %d unresolved\n"
           v.Validate.v_true_sharing v.Validate.v_false_sharing
           (Validate.false_sharing_fraction v)
           v.Validate.v_sharing_unknown);
      if Validate.line_sound v then
        Buffer.add_string buf
          "line soundness: OK (every resolved conflict covered by a \
           predicted line-colliding pair)\n"
      else
        Buffer.add_string buf
          (Printf.sprintf
             "line soundness: VIOLATED — %d abort(s) predicted at node \
              level but covered by no line-colliding pair\n"
             v.Validate.v_line_unsound)
    end;
    if Validate.sound v then
      Buffer.add_string buf "soundness: OK (every dynamic edge predicted)\n"
    else begin
      Buffer.add_string buf "soundness: VIOLATED — unpredicted edges:\n";
      List.iter
        (fun (e : Validate.edge) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-8s -> ab%-3d %6d abort(s)  [UNPREDICTED]\n"
               (Validate.source_label e.Validate.e_src)
               e.Validate.e_dst e.Validate.e_count))
        v.Validate.v_unsound
    end;
    Buffer.add_string buf
      (Printf.sprintf "precision: %d/%d static edges observed (%.2f)\n"
         v.Validate.v_observed v.Validate.v_predicted (Validate.precision v));
    Buffer.contents buf
  | Tsv ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "name\tedge\tsrc\tdst\tcount\tpredicted\ttrue\tfalse\tunresolved\n";
    let line pred (e : Validate.edge) =
      Buffer.add_string buf
        (Printf.sprintf "%s\tedge\t%s\tab%d\t%d\t%s\t%d\t%d\t%d\n" t.a_name
           (Validate.source_label e.Validate.e_src)
           e.Validate.e_dst e.Validate.e_count pred e.Validate.e_true
           e.Validate.e_false e.Validate.e_unknown)
    in
    List.iter (line "yes")
      (List.filter
         (fun e -> not (List.mem e v.Validate.v_unsound))
         v.Validate.v_edges);
    List.iter (line "no") v.Validate.v_unsound;
    Buffer.add_string buf
      (Printf.sprintf "%s\tprecision\t-\t-\t%d\t%d\t-\t-\t-\n" t.a_name
         v.Validate.v_observed v.Validate.v_predicted);
    (* count = aborts attributed at line granularity, predicted =
       line-soundness violations among them *)
    Buffer.add_string buf
      (Printf.sprintf "%s\tsharing\t-\t-\t%d\t%d\t%d\t%d\t%d\n" t.a_name
         (v.Validate.v_true_sharing + v.Validate.v_false_sharing)
         v.Validate.v_line_unsound v.Validate.v_true_sharing
         v.Validate.v_false_sharing v.Validate.v_sharing_unknown);
    Buffer.contents buf
