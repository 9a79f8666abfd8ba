open Stx_tir
open Stx_dsa

type iset = (int, unit) Hashtbl.t

type source = Ab of int | Outside

type fset = (int * int, unit) Hashtbl.t  (* (global id, field) *)

type t = {
  c_nabs : int;
  c_resolution : Stx_policy.Resolution.t;
  c_reads : iset array;  (* per ab, whole-program plane *)
  c_writes : iset array;
  c_out_reads : iset;
  c_out_writes : iset;
  c_read_fields : fset array;  (* field refinement of c_reads *)
  c_write_fields : fset array;
  c_out_write_fields : fset;
  c_node_of_gid : (int, Dsnode.t) Hashtbl.t;  (* witness node per global id *)
  c_to_global : (int, iset) Hashtbl.t array;  (* local node id -> global ids *)
  c_all_reads : iset;  (* union over blocks *)
  c_all_writes : iset;
  c_matrix : int list array array;  (* witnesses; row c_nabs = outside *)
}

let iset () : iset = Hashtbl.create 16
let iadd (s : iset) x = Hashtbl.replace s x ()
let imem (s : iset) x = Hashtbl.mem s x

let inter a b =
  Hashtbl.fold (fun x () acc -> if imem b x then x :: acc else acc) a []

let union_into ~into s = Hashtbl.iter (fun x () -> iadd into x) s

(* Functions execution can start from: never the target of a call, plus
   the conventional thread entry point. *)
let roots prog =
  let called : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ f ->
      Ir.iter_insts f (fun _ _ inst ->
          match inst.Ir.op with
          | Ir.Call (_, g, _) -> Hashtbl.replace called g ()
          | Ir.Atomic_call (_, ab, _) ->
            Hashtbl.replace called prog.Ir.atomics.(ab).Ir.ab_func ()
          | _ -> ()))
    prog.Ir.funcs;
  let rs =
    Hashtbl.fold
      (fun name _ acc -> if Hashtbl.mem called name then acc else name :: acc)
      prog.Ir.funcs []
  in
  let rs =
    if Hashtbl.mem prog.Ir.funcs "main" && not (List.mem "main" rs) then
      "main" :: rs
    else rs
  in
  match rs with
  | [] -> Hashtbl.fold (fun name _ acc -> name :: acc) prog.Ir.funcs []
  | rs -> List.sort compare rs

let compute ?(resolution = Stx_policy.Resolution.Requester_wins) prog dsa
    (sums : Summary.t) =
  let nabs = Array.length prog.Ir.atomics in
  let c_reads = Array.init nabs (fun _ -> iset ()) in
  let c_writes = Array.init nabs (fun _ -> iset ()) in
  let c_out_reads = iset () in
  let c_out_writes = iset () in
  let c_read_fields : fset array = Array.init nabs (fun _ -> Hashtbl.create 16) in
  let c_write_fields : fset array = Array.init nabs (fun _ -> Hashtbl.create 16) in
  let c_out_write_fields : fset = Hashtbl.create 16 in
  let c_node_of_gid : (int, Dsnode.t) Hashtbl.t = Hashtbl.create 64 in
  let c_to_global = Array.init nabs (fun _ -> Hashtbl.create 16) in
  let record_global ~ab lid gid =
    let tbl = c_to_global.(ab) in
    let s =
      match Hashtbl.find_opt tbl lid with
      | Some s -> s
      | None ->
        let s = iset () in
        Hashtbl.add tbl lid s;
        s
    in
    iadd s gid
  in
  (* Walk from the entry functions, composing call-site node mappings the
     way Unified does, so block footprints land in one common plane. *)
  let rec visit fname translate active =
    if List.mem fname active then ()
    else
      let f = Ir.find_func prog fname in
      let active = fname :: active in
      (* global representative: record a witness node per global id so the
         line plane can recover type/shape information from an id alone.
         A field index folds to 0 when the *global* node is collapsed —
         unification may collapse a node some plane still saw as typed. *)
      let register n =
        let g = Dsnode.find n in
        let gi = Dsnode.id g in
        if not (Hashtbl.mem c_node_of_gid gi) then Hashtbl.add c_node_of_gid gi g;
        g
      in
      let grep n = register (translate n) in
      let gfield g fld = if Dsnode.is_collapsed g then 0 else fld in
      Ir.iter_insts f (fun _ _ inst ->
          match inst.Ir.op with
          | Ir.Load _ -> (
            match Dsa.access_node dsa inst.Ir.iid with
            | Some (n, _) -> iadd c_out_reads (Dsnode.id (grep n))
            | None -> ())
          | Ir.Store _ -> (
            match Dsa.access_node dsa inst.Ir.iid with
            | Some (n, fld) ->
              let g = grep n in
              iadd c_out_writes (Dsnode.id g);
              Hashtbl.replace c_out_write_fields (Dsnode.id g, gfield g fld) ()
            | None -> ())
          | Ir.Call (_, g, _) when Hashtbl.mem prog.Ir.funcs g ->
            let tr n = translate (Dsa.map_callee_node dsa ~call_iid:inst.Ir.iid n) in
            visit g tr active
          | Ir.Atomic_call (_, ab, _) ->
            let g = prog.Ir.atomics.(ab).Ir.ab_func in
            let tr n = translate (Dsa.map_callee_node dsa ~call_iid:inst.Ir.iid n) in
            let s = Summary.find sums g in
            let lift dst n =
              let lid = Dsnode.id (Dsnode.find n) in
              let gi = Dsnode.id (register (tr n)) in
              iadd dst gi;
              record_global ~ab lid gi
            in
            let lift_field dst (n, fld) =
              let gr = register (tr n) in
              Hashtbl.replace dst (Dsnode.id gr, gfield gr fld) ()
            in
            List.iter (lift c_reads.(ab)) (Summary.reads s);
            List.iter (lift c_writes.(ab)) (Summary.writes s);
            List.iter (lift_field c_read_fields.(ab)) (Summary.read_fields s);
            List.iter (lift_field c_write_fields.(ab)) (Summary.write_fields s)
          | _ -> ())
  in
  List.iter (fun r -> visit r Dsnode.find []) (roots prog);
  let c_all_reads = iset () and c_all_writes = iset () in
  Array.iter (union_into ~into:c_all_reads) c_reads;
  Array.iter (union_into ~into:c_all_writes) c_writes;
  (* Requester-wins: src's writes doom dst's readers and writers; src's
     transactional reads doom dst's writers; outside reads doom nobody.
     Responder-wins inverts the roles — dst dooms itself when its own
     request hits src's established footprint — and timestamp allows
     either direction depending on transaction age. On transactional
     pairs the three formulas are extensionally equal (intersection
     commutes and read/read pairs never conflict), so the matrix itself
     is resolution-invariant; that invariance is what keeps the trace
     validator sound under every policy. The parameter fixes which
     formula is actually evaluated and is recorded for downstream
     consumers ({!resolution}). *)
  let witnesses src_reads src_writes j =
    let w =
      inter src_writes c_reads.(j)
      @ inter src_writes c_writes.(j)
      @ match src_reads with
        | Some r -> inter r c_writes.(j)
        | None -> []
    in
    List.sort_uniq compare w
  in
  let responder_witnesses i j =
    inter c_writes.(j) c_reads.(i)
    @ inter c_writes.(j) c_writes.(i)
    @ inter c_reads.(j) c_writes.(i)
  in
  let tx_witnesses i j =
    match resolution with
    | Stx_policy.Resolution.Requester_wins ->
      witnesses (Some c_reads.(i)) c_writes.(i) j
    | Stx_policy.Resolution.Responder_wins ->
      List.sort_uniq compare (responder_witnesses i j)
    | Stx_policy.Resolution.Timestamp ->
      List.sort_uniq compare
        (witnesses (Some c_reads.(i)) c_writes.(i) j
        @ responder_witnesses i j)
  in
  (* the outside row is policy-independent: nontransactional stores win
     under every resolution (they cannot abort), nt loads doom nobody *)
  let c_matrix =
    Array.init (nabs + 1) (fun i ->
        Array.init nabs (fun j ->
            if i < nabs then tx_witnesses i j
            else witnesses None c_out_writes j))
  in
  {
    c_nabs = nabs;
    c_resolution = resolution;
    c_reads;
    c_writes;
    c_out_reads;
    c_out_writes;
    c_read_fields;
    c_write_fields;
    c_out_write_fields;
    c_node_of_gid;
    c_to_global;
    c_all_reads;
    c_all_writes;
    c_matrix;
  }

let n_abs t = t.c_nabs
let resolution t = t.c_resolution

let row t = function Ab i -> t.c_matrix.(i) | Outside -> t.c_matrix.(t.c_nabs)

let witness t ~src ~dst = (row t src).(dst)
let may_doom t ~src ~dst = witness t ~src ~dst <> []

let edges t =
  let acc = ref [] in
  for j = t.c_nabs - 1 downto 0 do
    if t.c_matrix.(t.c_nabs).(j) <> [] then acc := (Outside, j) :: !acc
  done;
  for i = t.c_nabs - 1 downto 0 do
    for j = t.c_nabs - 1 downto 0 do
      if t.c_matrix.(i).(j) <> [] then acc := (Ab i, j) :: !acc
    done
  done;
  !acc

let footprint t ~ab = (Hashtbl.length t.c_reads.(ab), Hashtbl.length t.c_writes.(ab))
let outside_footprint t = (Hashtbl.length t.c_out_reads, Hashtbl.length t.c_out_writes)

let fset_elems (s : fset) =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])

let read_fields t ~ab = fset_elems t.c_read_fields.(ab)
let write_fields t ~ab = fset_elems t.c_write_fields.(ab)
let outside_write_fields t = fset_elems t.c_out_write_fields
let node_of_global t gid = Hashtbl.find_opt t.c_node_of_gid gid

let to_global t ~ab lid =
  match Hashtbl.find_opt t.c_to_global.(ab) lid with
  | None -> []
  | Some s -> List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) s [])

let prone t ~ab ~store lid =
  List.exists
    (fun g ->
      imem t.c_all_writes g || imem t.c_out_writes g
      || (store && imem t.c_all_reads g))
    (to_global t ~ab lid)

let never_written t ~ab lid =
  match to_global t ~ab lid with
  | [] -> false (* never reached by the walk: claim nothing *)
  | gs ->
    List.for_all
      (fun g -> not (imem t.c_all_writes g || imem t.c_out_writes g))
      gs
