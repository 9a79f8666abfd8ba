open Stx_tir

type aval = { mutable node : Dsnode.t option; mutable field : int }

type fstate = {
  avals : aval array; (* per register *)
  mutable nodes : Dsnode.t list; (* registry of nodes created for this function *)
  ret : aval;
}

type t = {
  prog : Ir.program;
  states : (string, fstate) Hashtbl.t;
  access : (int, Dsnode.t * int) Hashtbl.t;
  (* call iid -> callee-node-id -> caller node; absent table = identity *)
  site_maps : (int, (int, Dsnode.t) Hashtbl.t) Hashtbl.t;
  alloc_memo : (int, Dsnode.t) Hashtbl.t; (* alloc-site iid -> node *)
  mutable analyzed : int;
}

(* --- call graph ------------------------------------------------------- *)

let callees_of (p : Ir.program) (f : Ir.func) =
  let acc = ref [] in
  Ir.iter_insts f (fun _ _ inst ->
      match inst.Ir.op with
      | Ir.Call (_, g, _) -> acc := g :: !acc
      | Ir.Atomic_call (_, ab, _) -> acc := p.Ir.atomics.(ab).Ir.ab_func :: !acc
      | _ -> ());
  !acc

(* Tarjan SCC. Components are collected as they complete; a component
   completes only after every component it can reach, so the collected
   order is callees-first once reversed back. *)
let sccs (p : Ir.program) =
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) p.Ir.funcs [] in
  let names = List.sort compare names in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if Hashtbl.mem p.Ir.funcs w then
          if not (Hashtbl.mem index w) then begin
            strong w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.find_opt on_stack w = Some true then
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (callees_of p (Ir.find_func p v));
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strong n) names;
  (* prepending as components complete leaves callers at the head; reverse
     so callees come first, as the bottom-up stage requires *)
  List.rev !components

(* --- per-function state ----------------------------------------------- *)

let fstate_of t fname =
  match Hashtbl.find_opt t.states fname with
  | Some s -> s
  | None ->
    let f = Ir.find_func t.prog fname in
    let s =
      {
        avals = Array.init f.Ir.nregs (fun _ -> { node = None; field = 0 });
        nodes = [];
        ret = { node = None; field = 0 };
      }
    in
    Hashtbl.add t.states fname s;
    s

let register_node st n = st.nodes <- n :: st.nodes

let pointee st (av : aval) ~ty =
  match av.node with
  | Some n ->
    (match ty with Some s -> Dsnode.set_type n s | None -> ());
    Dsnode.find n
  | None ->
    let n = Dsnode.fresh ?ty () in
    register_node st n;
    av.node <- Some n;
    n

(* assign (n, f) into an aval, unifying with previous contents *)
let assign_aval (av : aval) n f =
  match av.node with
  | None ->
    av.node <- Some n;
    av.field <- f
  | Some old ->
    Dsnode.unify old n;
    if av.field <> f then begin
      Dsnode.collapse n;
      av.field <- 0
    end

(* Steensgaard assignment [d := s]: the two registers may alias, so their
   abstract values unify symmetrically — in particular a parameter copied
   before its pointer-hood is known inherits the node discovered later. *)
let unify_avals (a : aval) (b : aval) =
  match (a.node, b.node) with
  | None, None -> ()
  | Some n, None ->
    b.node <- Some n;
    b.field <- a.field
  | None, Some n ->
    a.node <- Some n;
    a.field <- b.field
  | Some na, Some nb ->
    Dsnode.unify na nb;
    if a.field <> b.field then begin
      Dsnode.collapse na;
      a.field <- 0;
      b.field <- 0
    end

(* --- local transfer function ------------------------------------------ *)

let field_ptr_ty prog n f =
  match Dsnode.ty n with
  | None -> None
  | Some sname -> (
    if Dsnode.is_collapsed n then None
    else
      match Hashtbl.find_opt prog.Ir.structs sname with
      | None -> None
      | Some s ->
        if f < Types.size s then
          match (Types.field s f).Types.fkind with
          | Types.Ptr tname -> Some tname
          | Types.Scalar -> None
        else None)

let record_access t iid n f =
  if not (Hashtbl.mem t.access iid) then t.analyzed <- t.analyzed + 1;
  Hashtbl.replace t.access iid (n, f)

let process_simple t st (inst : Ir.inst) =
  let av r = st.avals.(r) in
  match inst.Ir.op with
  | Ir.Mov (d, Ir.Reg s) -> unify_avals (av s) (av d)
  | Ir.Mov (_, Ir.Imm _) | Ir.Bin _ | Ir.Intr _ | Ir.Alp _ -> ()
  | Ir.Gep (d, b, sname, f) ->
    let n = pointee st (av b) ~ty:(Some sname) in
    assign_aval (av d) n f
  | Ir.Idx (d, b, _, _) ->
    let n = pointee st (av b) ~ty:None in
    Dsnode.set_array n;
    assign_aval (av d) n 0
  | Ir.Alloc (d, sname) | Ir.Alloc_arr (d, sname, _) ->
    let n =
      match Hashtbl.find_opt t.alloc_memo inst.Ir.iid with
      | Some n -> Dsnode.find n
      | None ->
        let n = Dsnode.fresh ~ty:sname () in
        (match inst.Ir.op with Ir.Alloc_arr _ -> Dsnode.set_array n | _ -> ());
        Hashtbl.add t.alloc_memo inst.Ir.iid n;
        register_node st n;
        n
    in
    assign_aval (av d) n 0
  | Ir.Load (d, p) -> (
    let n = pointee st (av p) ~ty:None in
    let f = if Dsnode.is_collapsed n then 0 else (av p).field in
    record_access t inst.Ir.iid n f;
    match field_ptr_ty t.prog n f with
    | Some tname ->
      let tgt = Dsnode.edge_or_create n f ~ty:(Some tname) in
      register_node st tgt;
      assign_aval (av d) tgt 0
    | None -> (
      match Dsnode.edge n f with
      | Some tgt when Dsnode.is_collapsed n -> assign_aval (av d) tgt 0
      | _ -> ()))
  | Ir.Store (p, v) -> (
    let n = pointee st (av p) ~ty:None in
    let f = if Dsnode.is_collapsed n then 0 else (av p).field in
    record_access t inst.Ir.iid n f;
    match v with
    | Ir.Reg r -> (
      match (av r).node with
      | Some m ->
        let tgt = Dsnode.edge_or_create n f ~ty:(Dsnode.ty m) in
        register_node st tgt;
        Dsnode.unify tgt m
      | None -> ())
    | Ir.Imm _ -> ())
  | Ir.Call _ | Ir.Atomic_call _ -> ()

(* --- bottom-up stage --------------------------------------------------- *)

(* Deep-copy the callee's graph into the caller, returning the
   callee-node-id -> clone mapping covering the callee's whole registry. *)
let clone_graph ~into_st (callee_st : fstate) =
  let memo = Hashtbl.create 32 in
  let rec clone n =
    let r = Dsnode.find n in
    match Hashtbl.find_opt memo (Dsnode.id r) with
    | Some c -> c
    | None ->
      let c = Dsnode.fresh ?ty:(Dsnode.ty r) () in
      Hashtbl.add memo (Dsnode.id r) c;
      register_node into_st c;
      if Dsnode.is_collapsed r then Dsnode.collapse c;
      if Dsnode.is_array r then Dsnode.set_array c;
      List.iter
        (fun (f, tgt) ->
          Dsnode.unify (Dsnode.edge_or_create c f ~ty:None) (clone tgt))
        (Dsnode.edges r);
      c
  in
  let map = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let c = clone n in
      Hashtbl.replace map (Dsnode.id n) c;
      (* members of a union-find class share the rep's id already; also key
         the original object's own creation path via its rep *)
      ignore c)
    callee_st.nodes;
  map

let unify_args t caller_st callee_name args dst_reg ~translate =
  let callee_st = fstate_of t callee_name in
  let callee = Ir.find_func t.prog callee_name in
  List.iteri
    (fun i arg ->
      if i < Array.length callee.Ir.params then
        match (callee_st.avals.(i).node, arg) with
        | Some pn, Ir.Reg r ->
          let caller_n = pointee caller_st caller_st.avals.(r) ~ty:None in
          Dsnode.unify (translate pn) caller_n
        | _ -> ())
    args;
  match (dst_reg, callee_st.ret.node) with
  | Some d, Some rn ->
    let caller_n = pointee caller_st caller_st.avals.(d) ~ty:None in
    Dsnode.unify (translate rn) caller_n
  | _ -> ()

let process_call t fname in_scc (inst : Ir.inst) =
  let caller_st = fstate_of t fname in
  let target, dst, args =
    match inst.Ir.op with
    | Ir.Call (d, g, args) -> (Some g, d, args)
    | Ir.Atomic_call (d, ab, args) ->
      (Some t.prog.Ir.atomics.(ab).Ir.ab_func, d, args)
    | _ -> (None, None, [])
  in
  match target with
  | None -> ()
  | Some g ->
    if List.mem g in_scc then
      (* recursive edge: share the callee's graph directly (identity map) *)
      unify_args t caller_st g args dst ~translate:Dsnode.find
    else begin
      let map =
        match Hashtbl.find_opt t.site_maps inst.Ir.iid with
        | Some m -> m
        | None ->
          let m = clone_graph ~into_st:caller_st (fstate_of t g) in
          Hashtbl.add t.site_maps inst.Ir.iid m;
          m
      in
      let translate n =
        match Hashtbl.find_opt map (Dsnode.id n) with
        | Some c -> Dsnode.find c
        | None -> Dsnode.find n
      in
      unify_args t caller_st g args dst ~translate
    end

let process_ret t fname =
  let st = fstate_of t fname in
  let f = Ir.find_func t.prog fname in
  Array.iter
    (fun b ->
      match b.Ir.term with
      | Ir.Ret (Some (Ir.Reg r)) -> (
        match st.avals.(r).node with
        | Some n -> (
          match st.ret.node with
          | None -> st.ret.node <- Some n
          | Some old -> Dsnode.unify old n)
        | None -> ())
      | _ -> ())
    f.Ir.blocks

let process_function t fname in_scc =
  let st = fstate_of t fname in
  let f = Ir.find_func t.prog fname in
  (* two local sweeps reach the flow-insensitive fixpoint for loops *)
  for _ = 1 to 2 do
    Ir.iter_insts f (fun _ _ inst ->
        process_simple t st inst;
        match inst.Ir.op with
        | Ir.Call _ | Ir.Atomic_call _ -> process_call t fname in_scc inst
        | _ -> ())
  done;
  process_ret t fname

let analyze prog =
  (* fresh, process-history-independent node ids per analysis (see Dsnode) *)
  Dsnode.reset_ids ();
  let t =
    {
      prog;
      states = Hashtbl.create 32;
      access = Hashtbl.create 256;
      site_maps = Hashtbl.create 64;
      alloc_memo = Hashtbl.create 64;
      analyzed = 0;
    }
  in
  let components = sccs prog in
  List.iter
    (fun scc ->
      (* iterate SCC members twice for mutual recursion *)
      for _ = 1 to if List.length scc > 1 then 2 else 1 do
        List.iter (fun fname -> process_function t fname scc) scc
      done)
    components;
  t

(* --- queries ------------------------------------------------------------ *)

let access_node t iid =
  Option.map
    (fun (n, f) ->
      let n = Dsnode.find n in
      ((n : Dsnode.t), if Dsnode.is_collapsed n then 0 else f))
    (Hashtbl.find_opt t.access iid)

let map_callee_node t ~call_iid n =
  match Hashtbl.find_opt t.site_maps call_iid with
  | None -> Dsnode.find n
  | Some map -> (
    match Hashtbl.find_opt map (Dsnode.id n) with
    | Some c -> Dsnode.find c
    | None -> Dsnode.find n)

let accesses_analyzed t = t.analyzed

let call_sccs = sccs
