open Stx_tir
open Stx_dsa

(* The line-granular layout plane. See the interface for the model; the
   ground truth it mirrors is Stx_machine.Alloc with its default
   line-aligned placement: every object starts on a line boundary and is
   padded to a whole number of lines, so intra-object offsets alone
   decide which fields share a hardware line. *)

type placement =
  | Exact of { span : int; line_of_field : int array }
  | Aliased of { reason : string }

type sharing = True_sharing | False_sharing

type pair = {
  p_gid : int;
  p_src_field : int;
  p_dst_field : int;
  p_line : int option;
  p_sharing : sharing;
}

type bound = { lb_min_read : int; lb_min_write : int; lb_aliased : bool }

type t = {
  l_wpl : int;
  l_prog : Ir.program;
  l_dsa : Dsa.t;
  l_conf : Conflict.t;
  l_place : (int, placement) Hashtbl.t; (* gid -> placement (cache) *)
  l_edges : (Conflict.source * int, pair list) Hashtbl.t;
  l_edge_order : (Conflict.source * int) list;
  l_lines : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* gid -> contended lines *)
  l_bounds : bound array; (* per atomic block *)
}

let words_per_line t = t.l_wpl

(* --- the placement model --------------------------------------------- *)

let placement_of_wpl ~words_per_line prog node =
  let n = Dsnode.find node in
  if Dsnode.is_collapsed n then
    Aliased { reason = "collapsed (field-insensitive) node" }
  else
    match Dsnode.ty n with
    | None -> Aliased { reason = "untyped node" }
    | Some sname -> (
      match Ir.find_struct prog sname with
      | exception Not_found -> Aliased { reason = "unknown struct " ^ sname }
      | s ->
        let sz = Types.size s in
        if Dsnode.is_array n && sz mod words_per_line <> 0 then
          Aliased
            {
              reason =
                Printf.sprintf
                  "array of %d-word %s packs elements across line boundaries"
                  sz sname;
            }
        else
          (* a lone struct is padded to a line multiple; an array whose
             stride is a line multiple starts every element on a line
             boundary — either way field offsets map to lines exactly *)
          Exact
            {
              span = Types.lines_spanned ~words_per_line s;
              line_of_field =
                Array.init sz (fun f -> Types.line_of_field ~words_per_line f);
            })

let placement_of_node t node = placement_of_wpl ~words_per_line:t.l_wpl t.l_prog node

let placement t ~gid =
  match Hashtbl.find_opt t.l_place gid with
  | Some p -> Some p
  | None -> (
    match Conflict.node_of_global t.l_conf gid with
    | None -> None
    | Some n ->
      let p = placement_of_node t n in
      Hashtbl.add t.l_place gid p;
      Some p)

let struct_of t ~gid =
  match Conflict.node_of_global t.l_conf gid with
  | None -> None
  | Some n ->
    if Dsnode.is_collapsed n then None
    else (
      match Dsnode.ty n with
      | None -> None
      | Some s -> (
        match Ir.find_struct t.l_prog s with
        | exception Not_found -> None
        | s -> Some s))

(* line class of a field under a placement; None = unresolved (aliased
   placement, or an offset the typed mapping does not cover) *)
let line_class pl f =
  match pl with
  | Aliased _ -> None
  | Exact { line_of_field; _ } ->
    if f >= 0 && f < Array.length line_of_field then Some line_of_field.(f)
    else None

(* --- edge refinement -------------------------------------------------- *)

let compare_pair a b =
  compare
    (a.p_gid, a.p_src_field, a.p_dst_field)
    (b.p_gid, b.p_src_field, b.p_dst_field)

let refine t ~src ~dst =
  let conf = t.l_conf in
  let sr, sw =
    match src with
    | Conflict.Ab i ->
      (Conflict.read_fields conf ~ab:i, Conflict.write_fields conf ~ab:i)
    | Conflict.Outside -> ([], Conflict.outside_write_fields conf)
  in
  let dr = Conflict.read_fields conf ~ab:dst in
  let dw = Conflict.write_fields conf ~ab:dst in
  let acc = Hashtbl.create 16 in
  let consider (g1, f1) (g2, f2) =
    if g1 = g2 then begin
      let pl = placement t ~gid:g1 in
      let collision =
        match pl with
        | None -> None (* the walk never saw the node: claim nothing *)
        | Some pl -> (
          match (line_class pl f1, line_class pl f2) with
          | Some l1, Some l2 -> if l1 = l2 then Some (Some l1) else None
          | _ -> Some None (* unresolved: may share a line *))
      in
      match collision with
      | None -> ()
      | Some line ->
        let s = if f1 = f2 then True_sharing else False_sharing in
        Hashtbl.replace acc (g1, f1, f2)
          { p_gid = g1; p_src_field = f1; p_dst_field = f2; p_line = line;
            p_sharing = s }
    end
  in
  (* a src write collides with dst reads and writes; a src (transactional)
     read only with dst writes — the same role split as the node matrix,
     and like it invariant under the resolution policy *)
  List.iter (fun a -> List.iter (consider a) dr) sw;
  List.iter (fun a -> List.iter (consider a) dw) sw;
  List.iter (fun a -> List.iter (consider a) dw) sr;
  List.sort compare_pair (Hashtbl.fold (fun _ p l -> p :: l) acc [])

let pairs t ~src ~dst =
  match Hashtbl.find_opt t.l_edges (src, dst) with
  | Some ps -> ps
  | None ->
    let ps = refine t ~src ~dst in
    Hashtbl.add t.l_edges (src, dst) ps;
    ps

let edges t = List.map (fun (src, dst) -> (src, dst, pairs t ~src ~dst)) t.l_edge_order

let conflict_lines t ~gid =
  match Hashtbl.find_opt t.l_lines gid with
  | None -> []
  | Some s -> List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) s [])

(* --- capacity lower bounds ------------------------------------------- *)

(* Basic blocks that dominate every reachable [Ret] run to completion on
   every committing execution; their loads/stores (and those of callees
   reached from them, translated into the block's root plane) must land
   in the transaction's read/write sets before commit. Distinct DSNodes
   are disjoint objects and objects are line-aligned, so distinct
   (node, line-class) keys are distinct hardware lines — a sound lower
   bound. Recursion truncates (cycle guard), which only shrinks it. *)
let compute_bound t ~ab =
  let prog = t.l_prog and dsa = t.l_dsa in
  let reads : (int * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let writes : (int * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let read_alias : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let write_alias : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let aliased = ref false in
  let add exact alias n fld =
    let n = Dsnode.find n in
    match placement_of_node t n with
    | Exact { line_of_field; _ } ->
      let f = if fld >= 0 && fld < Array.length line_of_field then fld else 0 in
      Hashtbl.replace exact (Dsnode.id n, line_of_field.(f)) ()
    | Aliased _ ->
      aliased := true;
      Hashtbl.replace alias (Dsnode.id n) ()
  in
  let rec visit fname translate active =
    if List.mem fname active then ()
    else begin
      let f = Ir.find_func prog fname in
      let active = fname :: active in
      let dom = Dom.compute f in
      let rets = ref [] in
      Array.iteri
        (fun bi blk ->
          match blk.Ir.term with
          | Ir.Ret _ when Dom.reachable dom bi -> rets := bi :: !rets
          | _ -> ())
        f.Ir.blocks;
      let must bi =
        !rets <> []
        && Dom.reachable dom bi
        && List.for_all (fun r -> Dom.dominates dom bi r) !rets
      in
      Array.iteri
        (fun bi blk ->
          if must bi then
            Array.iter
              (fun inst ->
                match inst.Ir.op with
                | Ir.Load _ -> (
                  match Dsa.access_node dsa inst.Ir.iid with
                  | Some (n, fld) -> add reads read_alias (translate n) fld
                  | None -> ())
                | Ir.Store _ -> (
                  match Dsa.access_node dsa inst.Ir.iid with
                  | Some (n, fld) -> add writes write_alias (translate n) fld
                  | None -> ())
                | Ir.Call (_, g, _) when Hashtbl.mem prog.Ir.funcs g ->
                  let tr n =
                    translate (Dsa.map_callee_node dsa ~call_iid:inst.Ir.iid n)
                  in
                  visit g tr active
                | Ir.Atomic_call (_, ab', _) ->
                  let g = prog.Ir.atomics.(ab').Ir.ab_func in
                  let tr n =
                    translate (Dsa.map_callee_node dsa ~call_iid:inst.Ir.iid n)
                  in
                  visit g tr active
                | _ -> ())
              blk.Ir.insts)
        f.Ir.blocks
    end
  in
  visit prog.Ir.atomics.(ab).Ir.ab_func Dsnode.find [];
  {
    lb_min_read = Hashtbl.length reads + Hashtbl.length read_alias;
    lb_min_write = Hashtbl.length writes + Hashtbl.length write_alias;
    lb_aliased = !aliased;
  }

let capacity_bound t ~ab = t.l_bounds.(ab)

(* --- dynamic attribution --------------------------------------------- *)

type attribution = Attributed of sharing | Unpredicted

let classify_conflict t ~src ~dst ~gids ~field =
  let ps = pairs t ~src ~dst in
  let relevant p =
    List.mem p.p_gid gids
    &&
    match placement t ~gid:p.p_gid with
    | Some (Exact _ as pl) -> (
      (* the victim's first touch of the conflicting line was [field]:
         any pair whose destination shares that field's line class can
         be the access that actually collided *)
      match (line_class pl field, line_class pl p.p_dst_field) with
      | Some lf, Some ld -> lf = ld
      | _ -> true)
    | Some (Aliased _) | None -> true
  in
  let rel = List.filter relevant ps in
  if rel = [] then Unpredicted
  else if List.exists (fun p -> p.p_sharing = True_sharing) rel then
    Attributed True_sharing
  else Attributed False_sharing

(* --- construction ----------------------------------------------------- *)

let build prog dsa conf =
  let t =
    {
      l_wpl = Stx_machine.Config.default.Stx_machine.Config.words_per_line;
      l_prog = prog;
      l_dsa = dsa;
      l_conf = conf;
      l_place = Hashtbl.create 32;
      l_edges = Hashtbl.create 32;
      l_edge_order = Conflict.edges conf;
      l_lines = Hashtbl.create 32;
      l_bounds = [||];
    }
  in
  let t =
    { t with
      l_bounds =
        Array.init (Conflict.n_abs conf) (fun ab -> compute_bound t ~ab) }
  in
  (* eager refinement: fills the edge cache and the per-node contended
     lines in one deterministic pass *)
  List.iter
    (fun (src, dst) ->
      List.iter
        (fun p ->
          match p.p_line with
          | None -> ()
          | Some l ->
            let s =
              match Hashtbl.find_opt t.l_lines p.p_gid with
              | Some s -> s
              | None ->
                let s = Hashtbl.create 4 in
                Hashtbl.add t.l_lines p.p_gid s;
                s
            in
            Hashtbl.replace s l ())
        (pairs t ~src ~dst))
    t.l_edge_order;
  t
