(* bind the analysis-side line plane before [open Stx_tir] shadows the
   short name with the PC-assignment Layout of the IR *)
module Lplane = Layout

open Stx_tir
open Stx_compiler

(* iid -> is-store, over the whole (instrumented) program *)
let store_map prog =
  let m = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ f ->
      Ir.iter_insts f (fun _ _ inst ->
          match inst.Ir.op with
          | Ir.Load _ -> Hashtbl.replace m inst.Ir.iid false
          | Ir.Store _ -> Hashtbl.replace m inst.Ir.iid true
          | _ -> ()))
    prog.Ir.funcs;
  m

(* ---------------------------------------------------------------- *)
(* STX101: conflict-prone access without anchor coverage             *)

let missed_anchor_entries ~instrumented ~ab ~is_store ~prone entries =
  let resolve (e : Unified.entry) =
    if e.Unified.ue_is_anchor then Some e
    else
      match e.Unified.ue_pioneer with
      | Some p -> Some entries.(p)
      | None -> None
  in
  Array.to_list entries
  |> List.concat_map (fun (e : Unified.entry) ->
         let store = is_store e.Unified.ue_iid in
         if not (prone ~store e.Unified.ue_node) then []
         else
           match resolve e with
           | None ->
             [
               Diag.make ~ab ~func:e.Unified.ue_func ~iid:e.Unified.ue_iid
                 ~code:"STX101" ~severity:Diag.Error
                 (Printf.sprintf
                    "conflict-prone %s of node %d reaches no anchor in its \
                     unified table"
                    (if store then "store" else "load")
                    e.Unified.ue_node);
             ]
           | Some a when instrumented && a.Unified.ue_site = None ->
             [
               Diag.make ~ab ~func:e.Unified.ue_func ~iid:e.Unified.ue_iid
                 ~code:"STX101" ~severity:Diag.Error
                 (Printf.sprintf
                    "conflict-prone %s of node %d resolves to anchor %s#%d \
                     which has no ALP site"
                    (if store then "store" else "load")
                    e.Unified.ue_node a.Unified.ue_func a.Unified.ue_iid);
             ]
           | Some _ -> [])

let missed_anchor (p : Pipeline.t) graph =
  let stores = store_map p.Pipeline.prog in
  let is_store iid = try Hashtbl.find stores iid with Not_found -> false in
  Array.to_list p.Pipeline.unified
  |> List.concat_map (fun table ->
         let ab = Unified.ab_id table in
         missed_anchor_entries ~instrumented:p.Pipeline.instrumented ~ab
           ~is_store
           ~prone:(fun ~store lid -> Conflict.prone graph ~ab ~store lid)
           (Unified.entries table))

(* ---------------------------------------------------------------- *)
(* STX102: advisory lock over never-written data                     *)

let dead_alp (p : Pipeline.t) graph =
  Array.to_list p.Pipeline.unified
  |> List.concat_map (fun table ->
         let ab = Unified.ab_id table in
         Array.to_list (Unified.entries table)
         |> List.concat_map (fun (e : Unified.entry) ->
                if
                  e.Unified.ue_is_anchor
                  && Conflict.never_written graph ~ab e.Unified.ue_node
                then
                  let site =
                    match e.Unified.ue_site with
                    | Some s -> Printf.sprintf " (ALP site %d)" s
                    | None -> ""
                  in
                  [
                    Diag.make ~ab ~func:e.Unified.ue_func
                      ~iid:e.Unified.ue_iid ~code:"STX102"
                      ~severity:Diag.Warning
                      (Printf.sprintf
                         "anchor%s guards node %d which nothing ever \
                          writes; its advisory lock only serializes \
                          read-only data"
                         site e.Unified.ue_node);
                  ]
                else []))

(* ---------------------------------------------------------------- *)
(* STX103: lock-order hazard                                         *)

(* Cycles in the anchored-node acquisition order across atomic blocks
   (table order approximates execution order). The simulated runtime
   holds at most one advisory lock per attempt, so a cycle cannot
   deadlock it, but it convoys and would deadlock any runtime that stacks
   ALP locks. A warning under requester-wins and responder-wins (whose
   mutual dooms can repeat indefinitely), an info under timestamp karma
   (the oldest transaction always progresses). *)

(* Tarjan over an int-keyed adjacency table; returns SCCs of size >= 2. *)
let sccs_of adj =
  let index = Hashtbl.create 16 in
  let low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (try !(Hashtbl.find adj v) with Not_found -> []);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      if List.length comp >= 2 then out := List.sort compare comp :: !out
    end
  in
  Hashtbl.iter (fun v _ -> if not (Hashtbl.mem index v) then strongconnect v) adj;
  List.rev !out

let lock_order (p : Pipeline.t) graph =
  let adj : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let edge_abs : (int * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let add_edge ab x y =
    let l =
      match Hashtbl.find_opt adj x with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add adj x l;
        l
    in
    if not (List.mem y !l) then l := y :: !l;
    if not (Hashtbl.mem adj y) then Hashtbl.add adj y (ref []);
    let abs =
      match Hashtbl.find_opt edge_abs (x, y) with
      | Some a -> a
      | None ->
        let a = ref [] in
        Hashtbl.add edge_abs (x, y) a;
        a
    in
    if not (List.mem ab !abs) then abs := ab :: !abs
  in
  Array.iter
    (fun table ->
      let ab = Unified.ab_id table in
      let anchors =
        Array.to_list (Unified.entries table)
        |> List.filter (fun (e : Unified.entry) -> e.Unified.ue_is_anchor)
      in
      let globals (e : Unified.entry) =
        Conflict.to_global graph ~ab e.Unified.ue_node
      in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              List.iter
                (fun ga ->
                  List.iter
                    (fun gb -> if ga <> gb then add_edge ab ga gb)
                    (globals b))
                (globals a))
            rest;
          pairs rest
      in
      pairs anchors)
    p.Pipeline.unified;
  (* the hazard's weight depends on the conflict-resolution policy the
     graph was computed under: requester-wins and responder-wins both
     allow the blocks of a cycle to doom each other (or themselves)
     indefinitely, while timestamp karma bounds the damage — the oldest
     transaction always progresses — so the cycle convoys but cannot
     livelock the hardware path *)
  let severity, hazard =
    match Conflict.resolution graph with
    | Stx_policy.Resolution.Requester_wins ->
      ( Diag.Warning,
        "convoy hazard (deadlock under a runtime that stacks ALP locks)" )
    | Stx_policy.Resolution.Responder_wins ->
      ( Diag.Warning,
        "convoy hazard (deadlock under a runtime that stacks ALP locks; \
         under responder-wins a requester that hits a held node suicides \
         instead of clearing it, compounding the convoy)" )
    | Stx_policy.Resolution.Timestamp ->
      ( Diag.Info,
        "convoy hazard (deadlock under a runtime that stacks ALP locks; \
         timestamp resolution bounds the livelock — the oldest \
         transaction always progresses)" )
  in
  sccs_of adj
  |> List.map (fun comp ->
         let in_comp g = List.mem g comp in
         let abs =
           Hashtbl.fold
             (fun (x, y) abs acc ->
               if in_comp x && in_comp y then !abs @ acc else acc)
             edge_abs []
           |> List.sort_uniq compare
         in
         Diag.make ~code:"STX103" ~severity
           (Printf.sprintf
              "anchored nodes {%s} are acquired in conflicting orders by \
               atomic blocks {%s}: %s"
              (String.concat "," (List.map string_of_int comp))
              (String.concat "," (List.map string_of_int abs))
              hazard))

(* ---------------------------------------------------------------- *)
(* STX104: read-only classification disagreement                     *)

let read_only ?claimed (p : Pipeline.t) sums =
  let claimed = match claimed with Some c -> c | None -> p.Pipeline.read_only in
  let prog = p.Pipeline.prog in
  Array.to_list prog.Ir.atomics
  |> List.concat_map (fun (a : Ir.atomic) ->
         let ab = a.Ir.ab_id in
         let f = a.Ir.ab_func in
         let ro = not (Summary.may_write sums f) in
         match (claimed.(ab), ro) with
         | true, false ->
           [
             Diag.make ~ab ~func:f ~code:"STX104" ~severity:Diag.Error
               (Printf.sprintf
                  "block '%s' is classified read-only but its may-write \
                   summary is non-empty: the runtime would skip conflict \
                   precautions unsoundly"
                  a.Ir.ab_name);
           ]
         | false, true ->
           [
             Diag.make ~ab ~func:f ~code:"STX104" ~severity:Diag.Warning
               (Printf.sprintf
                  "block '%s' never writes by its may-write summary but is \
                   not classified read-only (missed optimization)"
                  a.Ir.ab_name);
           ]
         | _ -> [])

(* ---------------------------------------------------------------- *)
(* STX105: truncated-PC tag collisions                               *)

let truncated_pc (p : Pipeline.t) =
  let pc_of iid =
    try Some (Layout.pc_of_iid p.Pipeline.layout iid) with Not_found -> None
  in
  Array.to_list p.Pipeline.unified
  |> List.concat_map (fun table ->
         let ab = Unified.ab_id table in
         let entries = Unified.entries table in
         Unified.collisions table
         |> List.map (fun (tag, ids) ->
                let describe id =
                  let e = entries.(id) in
                  match pc_of e.Unified.ue_iid with
                  | Some pc ->
                    Printf.sprintf "%d(%s#%d@0x%x)" id e.Unified.ue_func
                      e.Unified.ue_iid pc
                  | None ->
                    Printf.sprintf "%d(%s#%d)" id e.Unified.ue_func
                      e.Unified.ue_iid
                in
                Diag.make ~ab ~code:"STX105" ~severity:Diag.Warning
                  (Printf.sprintf
                     "truncated-PC tag 0x%03x is shared by entries %s; \
                      hardware lookups silently resolve to entry %s"
                     tag
                     (String.concat " " (List.map describe ids))
                     (describe (List.hd ids)))))

(* ---------------------------------------------------------------- *)
(* STX106/STX108: false sharing and its padding fix-it               *)

let src_label prog = function
  | Conflict.Ab i -> Printf.sprintf "'%s'" prog.Ir.atomics.(i).Ir.ab_name
  | Conflict.Outside -> "outside code"

let dst_label prog dst = Printf.sprintf "'%s'" prog.Ir.atomics.(dst).Ir.ab_name

let node_name plane gid =
  match Lplane.struct_of plane ~gid with
  | Some s -> Printf.sprintf "struct %s (node %d)" s.Types.sname gid
  | None -> Printf.sprintf "node %d" gid

let field_name plane gid f =
  match Lplane.struct_of plane ~gid with
  | Some s when f >= 0 && f < Types.size s ->
    Printf.sprintf "'%s' (word %d)" (Types.field s f).Types.fname f
  | _ -> Printf.sprintf "field %d" f

(* every false-sharing witness with an exact line: (gid, line, fa, fb)
   with fa < fb, plus the conflict edges it appears on, in first-seen
   (edge-order) order *)
let false_pairs plane =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (src, dst, prs) ->
      List.iter
        (fun pr ->
          match (pr.Lplane.p_line, pr.Lplane.p_sharing) with
          | Some line, Lplane.False_sharing ->
            let fa = min pr.Lplane.p_src_field pr.Lplane.p_dst_field in
            let fb = max pr.Lplane.p_src_field pr.Lplane.p_dst_field in
            let key = (pr.Lplane.p_gid, line, fa, fb) in
            (match Hashtbl.find_opt tbl key with
            | Some ws -> if not (List.mem (src, dst) !ws) then ws := (src, dst) :: !ws
            | None ->
              Hashtbl.add tbl key (ref [ (src, dst) ]);
              order := key :: !order)
          | _ -> ())
        prs)
    (Lplane.edges plane);
  List.rev_map
    (fun ((gid, line, fa, fb) as key) ->
      (gid, line, fa, fb, List.rev !(Hashtbl.find tbl key)))
    !order
  |> List.rev

let false_sharing (p : Pipeline.t) plane =
  let prog = p.Pipeline.prog in
  false_pairs plane
  |> List.map (fun (gid, line, fa, fb, witnesses) ->
         let edges_s =
           witnesses
           |> List.map (fun (src, dst) ->
                  Printf.sprintf "%s->%s" (src_label prog src)
                    (dst_label prog dst))
           |> List.sort_uniq compare |> String.concat ", "
         in
         Diag.make ~code:"STX106" ~severity:Diag.Warning
           (Printf.sprintf
              "distinct fields %s and %s of %s share cache line %d of \
               every instance; conflicting accesses (%s) collide without \
               touching the same data (false sharing)"
              (field_name plane gid fa) (field_name plane gid fb)
              (node_name plane gid) line edges_s))

let padding_fixit (_p : Pipeline.t) plane =
  let w = Lplane.words_per_line plane in
  (* one fix-it per (gid, field pair); the shared line is a function of
     the pair, so dropping it from the key only merges duplicates *)
  let seen = Hashtbl.create 16 in
  false_pairs plane
  |> List.concat_map (fun (gid, line, fa, fb, _) ->
         if Hashtbl.mem seen (gid, fa, fb) then []
         else begin
           Hashtbl.add seen (gid, fa, fb) ();
           let pad = w - (fb mod w) in
           [
             Diag.make ~code:"STX108" ~severity:Diag.Info
               (Printf.sprintf
                  "inserting %d pad word%s before field %s of %s moves it \
                   off line %d and onto its own line, separating it from \
                   %s (fix for the STX106 pair)"
                  pad
                  (if pad = 1 then "" else "s")
                  (field_name plane gid fb) (node_name plane gid) line
                  (field_name plane gid fa));
           ]
         end)

(* ---------------------------------------------------------------- *)
(* STX107: static capacity-overflow prediction                       *)

let capacity_overflow ~capacity (p : Pipeline.t) plane =
  match capacity with
  | Stx_policy.Capacity.Unbounded -> []
  | Stx_policy.Capacity.Bounded { read_lines; write_lines } ->
    Array.to_list p.Pipeline.prog.Ir.atomics
    |> List.concat_map (fun (a : Ir.atomic) ->
           let ab = a.Ir.ab_id in
           let b = Lplane.capacity_bound plane ~ab in
           let weak = if b.Lplane.lb_aliased then
               " (a lower bound: some accessed nodes have unresolved line \
                placement)" else "" in
           if
             b.Lplane.lb_min_read > read_lines
             || b.Lplane.lb_min_write > write_lines
           then
             [
               Diag.make ~ab ~func:a.Ir.ab_func ~code:"STX107"
                 ~severity:Diag.Error
                 (Printf.sprintf
                    "block '%s' always overflows bounded:%d:%d capacity: \
                     every committing execution loads >=%d and stores \
                     >=%d distinct lines%s; its transactions can only \
                     complete through the fallback"
                    a.Ir.ab_name read_lines write_lines b.Lplane.lb_min_read
                    b.Lplane.lb_min_write weak);
             ]
           else if
             (b.Lplane.lb_min_read = read_lines && read_lines > 0)
             || (b.Lplane.lb_min_write = write_lines && write_lines > 0)
           then
             [
               Diag.make ~ab ~func:a.Ir.ab_func ~code:"STX107"
                 ~severity:Diag.Info
                 (Printf.sprintf
                    "block '%s' has no capacity headroom under \
                     bounded:%d:%d: its must-execute footprint already \
                     loads %d and stores %d distinct lines%s; one more \
                     distinct line in a set aborts with Capacity"
                    a.Ir.ab_name read_lines write_lines b.Lplane.lb_min_read
                    b.Lplane.lb_min_write weak);
             ]
           else [])

(* ---------------------------------------------------------------- *)
(* STX109: STM write-lock stripe aliasing (trace-backed)             *)

let stripe_aliasing tr =
  let groups : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (line, n) ->
      let s = Stx_stm.Stm.stripe_of_line ~nslots:Stx_stm.Stm.stripes ~line in
      match Hashtbl.find_opt groups s with
      | Some l -> l := (line, n) :: !l
      | None -> Hashtbl.add groups s (ref [ (line, n) ]))
    (Stx_trace.Trace.conflict_lines tr);
  Hashtbl.fold
    (fun stripe lines acc ->
      if List.length !lines >= 2 then (stripe, List.sort compare !lines) :: acc
      else acc)
    groups []
  |> List.sort compare
  |> List.map (fun (stripe, lines) ->
         let describe (line, n) = Printf.sprintf "%d (%d aborts)" line n in
         Diag.make ~code:"STX109" ~severity:Diag.Warning
           (Printf.sprintf
              "hot cache lines %s alias onto STM write-lock stripe %d/%d: \
               software-tier commits on any of them lock and version the \
               same stripe, so validation aborts cross between unrelated \
               lines"
              (String.concat ", " (List.map describe lines))
              stripe Stx_stm.Stm.stripes))

(* ---------------------------------------------------------------- *)
(* STX110: anchor-span waste                                         *)

let anchor_span (p : Pipeline.t) graph plane =
  let seen = Hashtbl.create 16 in
  Array.to_list p.Pipeline.unified
  |> List.concat_map (fun table ->
         let ab = Unified.ab_id table in
         Array.to_list (Unified.entries table)
         |> List.concat_map (fun (e : Unified.entry) ->
                if not e.Unified.ue_is_anchor then []
                else
                  Conflict.to_global graph ~ab e.Unified.ue_node
                  |> List.concat_map (fun gid ->
                         if Hashtbl.mem seen (ab, e.Unified.ue_iid, gid) then
                           []
                         else begin
                           Hashtbl.add seen (ab, e.Unified.ue_iid, gid) ();
                           match Lplane.placement plane ~gid with
                           | Some (Lplane.Exact { span; _ }) when span > 1
                             -> (
                             match Lplane.conflict_lines plane ~gid with
                             | [] -> []
                             | contended
                               when List.length contended < span ->
                               let waste = span - List.length contended in
                               [
                                 Diag.make ~ab ~func:e.Unified.ue_func
                                   ~iid:e.Unified.ue_iid ~code:"STX110"
                                   ~severity:Diag.Info
                                   (Printf.sprintf
                                      "anchor guards %s spanning %d lines \
                                       while only line%s %s carr%s \
                                       conflicting fields; its advisory \
                                       lock serializes %d uncontended \
                                       line%s of every instance"
                                      (node_name plane gid) span
                                      (if List.length contended = 1 then ""
                                       else "s")
                                      (String.concat ","
                                         (List.map string_of_int contended))
                                      (if List.length contended = 1 then
                                         "ies"
                                       else "y")
                                      waste
                                      (if waste = 1 then "" else "s"));
                               ]
                             | _ -> [])
                           | _ -> []
                         end)))

let all ?capacity ?plane p sums graph =
  let plane =
    match plane with
    | Some pl -> pl
    | None -> Lplane.build p.Pipeline.prog p.Pipeline.dsa graph
  in
  let cap =
    match capacity with
    | None -> []
    | Some c -> capacity_overflow ~capacity:c p plane
  in
  Diag.sort
    (missed_anchor p graph @ dead_alp p graph @ lock_order p graph
   @ read_only p sums @ truncated_pc p @ false_sharing p plane @ cap
   @ padding_fixit p plane @ anchor_span p graph plane)
