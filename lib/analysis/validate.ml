open Stx_sim
open Stx_trace

type edge = {
  e_src : Conflict.source;
  e_dst : int;
  e_count : int;
  e_true : int;
  e_false : int;
  e_unknown : int;
}

type t = {
  v_edges : edge list;
  v_unsound : edge list;
  v_conflict_aborts : int;
  v_unattributed : int;
  v_ambiguous : int;
  v_predicted : int;
  v_observed : int;
  v_true_sharing : int;
  v_false_sharing : int;
  v_sharing_unknown : int;
  v_line_unsound : int;
}

let source_label = function
  | Conflict.Ab ab -> Printf.sprintf "ab%d" ab
  | Conflict.Outside -> "outside"

(* Resolve the victim side of a conflict abort to (whole-program node
   ids, field): the event's [conf_pc] is the hardware's truncated tag of
   the victim's FIRST access to the conflicting line, so the unified
   table of the victim's block can map it back to an entry — unless the
   tag is ambiguous (STX105 territory) or the instruction is not a
   table entry. The entry's root-context node translates through
   [Conflict.to_global]; its field comes from the DSA and is stable
   across graph planes (it is fixed by the access instruction itself). *)
let resolve_victim (pipeline : Stx_compiler.Pipeline.t) graph ~ab ~tag =
  let table = Stx_compiler.Pipeline.table_for pipeline ~ab in
  if Stx_compiler.Unified.tag_ambiguous table tag then None
  else
    (* The tag names an instruction, not a calling context: one iid can
       appear in several table entries (one per context), each mapping
       the access to a different whole-program node. The dynamic
       instance went through exactly one of them, but the tag cannot
       tell which — union the global ids of every matching entry. The
       field is the same across contexts (fixed by the instruction). *)
    let matching =
      Array.to_list (Stx_compiler.Unified.entries table)
      |> List.filter (fun (e : Stx_compiler.Unified.entry) ->
             Stx_tir.Layout.truncate
               ~bits:pipeline.Stx_compiler.Pipeline.pc_bits
               (Stx_tir.Layout.pc_of_iid pipeline.Stx_compiler.Pipeline.layout
                  e.Stx_compiler.Unified.ue_iid)
             = tag)
    in
    match matching with
    | [] -> None
    | e :: _ -> (
      match
        Stx_dsa.Dsa.access_node pipeline.Stx_compiler.Pipeline.dsa
          e.Stx_compiler.Unified.ue_iid
      with
      | None -> None
      | Some (_, field) -> (
        let gids =
          List.concat_map
            (fun (e : Stx_compiler.Unified.entry) ->
              Conflict.to_global graph ~ab e.Stx_compiler.Unified.ue_node)
            matching
          |> List.sort_uniq compare
        in
        match gids with [] -> None | _ -> Some (gids, field)))

(* unresolved < uncovered < false sharing < true sharing: true wins over
   false, keeping the reported false-sharing fraction a lower bound *)
let rank = function
  | None -> 0
  | Some Layout.Unpredicted -> 1
  | Some (Layout.Attributed Layout.False_sharing) -> 2
  | Some (Layout.Attributed Layout.True_sharing) -> 3

let classify_tag pipeline graph plane ~tag victims =
  let best a b = if rank b > rank a then b else a in
  List.fold_left
    (fun acc (ab, srcs) ->
      match resolve_victim pipeline graph ~ab ~tag with
      | None -> acc
      | Some (gids, field) ->
        List.fold_left
          (fun acc src ->
            best acc
              (Some (Layout.classify_conflict plane ~src ~dst:ab ~gids ~field)))
          (best acc (Some Layout.Unpredicted))
          srcs)
    None victims

let run ~ctx:(pipeline, plane) graph trace =
  let nt = Trace.threads trace in
  (* Per thread, newest-first list of (event index, source) transitions:
     [Some ab] while a block's transaction is (re)running, [None] for
     outside code. An aborted attempt keeps its block as a plausible
     source — its speculative accesses may already have doomed someone —
     so only a commit pushes [None]. *)
  let hist = Array.make nt [ (0, None) ] in
  let begin_idx = Array.make nt 0 in
  let counts : (Conflict.source * int, int ref) Hashtbl.t = Hashtbl.create 32 in
  let unsound : (Conflict.source * int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let sharing : (Conflict.source * int, int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let observed : (Conflict.source * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let bump tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None -> Hashtbl.add tbl key (ref 1)
  in
  let sharing_of key =
    match Hashtbl.find_opt sharing key with
    | Some c -> c
    | None ->
      let c = (ref 0, ref 0, ref 0) in
      Hashtbl.add sharing key c;
      c
  in
  let conflicts = ref 0 in
  let unattributed = ref 0 in
  let ambiguous = ref 0 in
  let true_sharing = ref 0 in
  let false_sharing = ref 0 in
  let sharing_unknown = ref 0 in
  let line_unsound = ref 0 in
  (* attribute the abort's line granularity once the (src, dst) edge is
     settled: which predicted line-colliding pair covers the access the
     victim was doomed on? The interval heuristic cannot always tell
     WHICH predicting source doomed the victim, so every predicting
     candidate is tried — the plane is unsound on this abort only when
     none of them covers the access (true wins over false, keeping the
     false-sharing fraction a lower bound). *)
  let classify key ~srcs ~ab ~conf_pc =
    let tr, fa, un = sharing_of key in
    match
      Option.bind conf_pc (fun tag ->
          classify_tag pipeline graph plane ~tag [ (ab, srcs) ])
    with
    | None ->
      incr sharing_unknown;
      incr un
    | Some (Layout.Attributed Layout.True_sharing) ->
      incr true_sharing;
      incr tr
    | Some (Layout.Attributed Layout.False_sharing) ->
      incr false_sharing;
      incr fa
    | Some Layout.Unpredicted ->
      incr line_unsound;
      incr un
  in
  let idx = ref 0 in
  Trace.iter trace (fun ~time:_ ev ->
      let i = !idx in
      incr idx;
      match ev with
      | Machine.Tx_begin { tid; ab; _ } -> (
        match hist.(tid) with
        | (_, Some cur) :: _ when cur = ab ->
          (* retry: the attempt window opened at the first begin *)
          ()
        | _ ->
          begin_idx.(tid) <- i;
          hist.(tid) <- (i, Some ab) :: hist.(tid))
      | Machine.Tx_commit { tid; _ } -> hist.(tid) <- (i, None) :: hist.(tid)
      | Machine.Tx_abort
          { tid; ab; kind = Machine.Conflict; aggressor; conf_pc; _ } -> (
        incr conflicts;
        match aggressor with
        | Some a when a >= 0 && a < nt && a <> tid ->
          (* candidate sources: what the aggressor ran inside the
             victim's attempt window, newest first *)
          let b = begin_idx.(tid) in
          let rec collect = function
            | [] -> []
            | (start, src) :: rest ->
              if start <= b then [ src ] else src :: collect rest
          in
          let cands = List.sort_uniq compare (collect hist.(a)) in
          if List.length cands > 1 then incr ambiguous;
          let to_src = function
            | Some s -> Conflict.Ab s
            | None -> Conflict.Outside
          in
          let predicting =
            List.filter
              (fun src -> Conflict.may_doom graph ~src ~dst:ab)
              (List.map to_src cands)
          in
          (* prefer attributing to a block over outside code *)
          let order = function Conflict.Ab _ -> 0 | Conflict.Outside -> 1 in
          (match List.sort (fun a b -> compare (order a) (order b)) predicting with
          | src :: _ as srcs ->
            bump counts (src, ab);
            Hashtbl.replace observed (src, ab) ();
            classify (src, ab) ~srcs ~ab ~conf_pc
          | [] ->
            let src = to_src (List.hd cands) in
            bump counts (src, ab);
            bump unsound (src, ab))
        | _ -> incr unattributed)
      | _ -> ());
  let dump tbl =
    Hashtbl.fold
      (fun (src, dst) r acc ->
        let tr, fa, un =
          match Hashtbl.find_opt sharing (src, dst) with
          | Some (t, f, u) -> (!t, !f, !u)
          | None -> (0, 0, 0)
        in
        { e_src = src; e_dst = dst; e_count = !r; e_true = tr; e_false = fa;
          e_unknown = un }
        :: acc)
      tbl []
    |> List.sort (fun a b ->
           let c = compare b.e_count a.e_count in
           if c <> 0 then c else compare (a.e_src, a.e_dst) (b.e_src, b.e_dst))
  in
  let static = Conflict.edges graph in
  let observed_static =
    List.length (List.filter (fun e -> Hashtbl.mem observed e) static)
  in
  {
    v_edges = dump counts;
    v_unsound = dump unsound;
    v_conflict_aborts = !conflicts;
    v_unattributed = !unattributed;
    v_ambiguous = !ambiguous;
    v_predicted = List.length static;
    v_observed = observed_static;
    v_true_sharing = !true_sharing;
    v_false_sharing = !false_sharing;
    v_sharing_unknown = !sharing_unknown;
    v_line_unsound = !line_unsound;
  }

let sound t = t.v_unsound = []

let line_sound t = t.v_line_unsound = 0

let precision t =
  if t.v_predicted = 0 then 1.0
  else float_of_int t.v_observed /. float_of_int t.v_predicted

let false_sharing_fraction t =
  let attributed = t.v_true_sharing + t.v_false_sharing in
  if attributed = 0 then 0.0
  else float_of_int t.v_false_sharing /. float_of_int attributed
