type t = {
  nblocks : int;
  reach : bool array;
  (* interval numbering of the dominator tree for O(1) dominance queries *)
  tin : int array;
  tout : int array;
  pre : int list;
}

let successors (f : Ir.func) i =
  match f.Ir.blocks.(i).Ir.term with
  | Ir.Jmp l -> [ Ir.block_index f l ]
  | Ir.Br (_, l1, l2) ->
    let a = Ir.block_index f l1 and b = Ir.block_index f l2 in
    if a = b then [ a ] else [ a; b ]
  | Ir.Ret _ -> []

(* reverse postorder of the CFG from the entry *)
let rpo f =
  let n = Array.length f.Ir.blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs (successors f i);
      order := i :: !order
    end
  in
  dfs 0;
  (!order, visited)

let compute (f : Ir.func) =
  let n = Array.length f.Ir.blocks in
  let order, reach = rpo f in
  let rpo_num = Array.make n (-1) in
  List.iteri (fun k b -> rpo_num.(b) <- k) order;
  let preds = Array.make n [] in
  Array.iteri
    (fun i _ ->
      if reach.(i) then
        List.iter (fun s -> preds.(s) <- i :: preds.(s)) (successors f i))
    f.Ir.blocks;
  let idoms = Array.make n (-1) in
  idoms.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idoms.(a) b
    else intersect a idoms.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then begin
          let processed = List.filter (fun p -> idoms.(p) <> -1) preds.(b) in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idoms.(b) <> new_idom then begin
              idoms.(b) <- new_idom;
              changed := true
            end
        end)
      order
  done;
  (* dominator-tree children, then DFS numbering *)
  let children = Array.make n [] in
  Array.iteri
    (fun b id -> if b <> 0 && id <> -1 then children.(id) <- b :: children.(id))
    idoms;
  Array.iteri (fun i c -> children.(i) <- List.sort compare c) children;
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let pre = ref [] in
  let rec dfs b =
    incr clock;
    tin.(b) <- !clock;
    pre := b :: !pre;
    List.iter dfs children.(b);
    incr clock;
    tout.(b) <- !clock
  in
  if reach.(0) then dfs 0;
  { nblocks = n; reach; tin; tout; pre = List.rev !pre }

let reachable t i = i >= 0 && i < t.nblocks && t.reach.(i)

let dominates t a b =
  reachable t a && reachable t b && t.tin.(a) <= t.tin.(b) && t.tout.(b) <= t.tout.(a)

let inst_dominates t (ba, ia) (bb, ib) =
  if ba = bb then ia < ib
  else reachable t ba && reachable t bb && t.tin.(ba) < t.tin.(bb) && t.tout.(bb) < t.tout.(ba)

let preorder t = t.pre
