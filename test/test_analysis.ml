open Stx_tir
open Stx_sim
open Stx_compiler
open Stx_analysis

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)

let compile_workload ?(anchor_mode = Anchors.Dsa_guided) w =
  let spec = Stx_workloads.Workload.spec ~anchor_mode ~scale:0.12 w in
  spec.Machine.compiled

let word_field = ("v", Stx_tir.Types.Scalar)

(* two atomic blocks over two provably disjoint structures *)
let build_disjoint_program () =
  let p = Ir.create_program () in
  Ir.add_struct p (Types.make "cell" [ word_field ]);
  let b = Builder.create p "bump_a" ~params:[ "pa" ] in
  let v = Builder.load b (Builder.param b "pa") in
  let v' = Builder.bin b Ir.Add v (Ir.Imm 1) in
  Builder.store b ~addr:(Builder.param b "pa") v';
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab_a = Ir.add_atomic p ~name:"bump_a" ~func:"bump_a" in
  let b = Builder.create p "bump_b" ~params:[ "pb" ] in
  let v = Builder.load b (Builder.param b "pb") in
  let v' = Builder.bin b Ir.Add v (Ir.Imm 1) in
  Builder.store b ~addr:(Builder.param b "pb") v';
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab_b = Ir.add_atomic p ~name:"bump_b" ~func:"bump_b" in
  let b = Builder.create p "main" ~params:[ "a"; "b" ] in
  Builder.atomic_call b ab_a [ Builder.param b "a" ];
  Builder.atomic_call b ab_b [ Builder.param b "b" ];
  Builder.ret b None;
  ignore (Builder.finish b);
  (p, ab_a, ab_b)

(* ------------------------------------------------------------------ *)
(* summaries                                                           *)

let test_summary_disjoint () =
  let p, _, _ = build_disjoint_program () in
  let c = Pipeline.compile ~instrument:false p in
  let sums = Summary.compute c.Pipeline.prog c.Pipeline.dsa in
  let sa = Summary.find sums "bump_a" in
  Alcotest.(check int) "bump_a reads one node" 1 (List.length (Summary.reads sa));
  Alcotest.(check int) "bump_a writes one node" 1
    (List.length (Summary.writes sa));
  Alcotest.(check bool) "bump_a may write" true
    (Summary.may_write sums "bump_a");
  (* main absorbs both atomic callees *)
  let sm = Summary.find sums "main" in
  Alcotest.(check int) "main writes both nodes" 2
    (List.length (Summary.writes sm))

let test_conflict_disjoint_graph () =
  let p, ab_a, ab_b = build_disjoint_program () in
  let c = Pipeline.compile ~instrument:false p in
  let sums = Summary.compute c.Pipeline.prog c.Pipeline.dsa in
  let g = Conflict.compute c.Pipeline.prog c.Pipeline.dsa sums in
  Alcotest.(check bool) "self conflict a" true
    (Conflict.may_doom g ~src:(Conflict.Ab ab_a) ~dst:ab_a);
  Alcotest.(check bool) "self conflict b" true
    (Conflict.may_doom g ~src:(Conflict.Ab ab_b) ~dst:ab_b);
  Alcotest.(check bool) "no cross conflict a->b" false
    (Conflict.may_doom g ~src:(Conflict.Ab ab_a) ~dst:ab_b);
  Alcotest.(check bool) "no cross conflict b->a" false
    (Conflict.may_doom g ~src:(Conflict.Ab ab_b) ~dst:ab_a);
  Alcotest.(check bool) "outside dooms nobody" false
    (Conflict.may_doom g ~src:Conflict.Outside ~dst:ab_a)

(* ------------------------------------------------------------------ *)
(* lints over the real workloads                                       *)

let test_lint_clean_all_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let c = compile_workload ~anchor_mode:m w in
          let a =
            Driver.analyze ~name:w.Stx_workloads.Workload.name c
          in
          Alcotest.(check int)
            (w.Stx_workloads.Workload.name ^ " error diagnostics")
            0
            (Diag.count Diag.Error a.Driver.a_diags))
        [ Anchors.Dsa_guided; Anchors.Naive ])
    Stx_workloads.Registry.all

let test_read_only_agrees_all_workloads () =
  List.iter
    (fun w ->
      let c = compile_workload w in
      let sums = Summary.compute c.Pipeline.prog c.Pipeline.dsa in
      Array.iter
        (fun (a : Ir.atomic) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s read-only agreement"
               w.Stx_workloads.Workload.name a.Ir.ab_name)
            c.Pipeline.read_only.(a.Ir.ab_id)
            (not (Summary.may_write sums a.Ir.ab_func)))
        c.Pipeline.prog.Ir.atomics)
    Stx_workloads.Registry.all

(* flipping the claimed classification must trip STX104 *)
let test_read_only_mutation_trips_lint () =
  let w =
    match Stx_workloads.Registry.find "list-hi" with
    | Some w -> w
    | None -> Alcotest.fail "list-hi missing"
  in
  let c = compile_workload w in
  let sums = Summary.compute c.Pipeline.prog c.Pipeline.dsa in
  Alcotest.(check int) "baseline: no STX104" 0
    (List.length (Lints.read_only c sums));
  (* claim a writing block read-only: unsound -> error *)
  let writing =
    let i = ref (-1) in
    Array.iteri (fun ab ro -> if (not ro) && !i < 0 then i := ab)
      c.Pipeline.read_only;
    !i
  in
  Alcotest.(check bool) "workload has a writing block" true (writing >= 0);
  let claimed = Array.copy c.Pipeline.read_only in
  claimed.(writing) <- true;
  let diags = Lints.read_only ~claimed c sums in
  Alcotest.(check int) "one diagnostic" 1 (List.length diags);
  Alcotest.(check bool) "it is an error" true (Diag.has_errors diags);
  (* deny a read-only block its classification: pessimization -> warning *)
  let ro_block =
    let i = ref (-1) in
    Array.iteri (fun ab ro -> if ro && !i < 0 then i := ab)
      c.Pipeline.read_only;
    !i
  in
  Alcotest.(check bool) "workload has a read-only block" true (ro_block >= 0);
  let claimed = Array.copy c.Pipeline.read_only in
  claimed.(ro_block) <- false;
  let diags = Lints.read_only ~claimed c sums in
  Alcotest.(check int) "one diagnostic" 1 (List.length diags);
  Alcotest.(check bool) "it is a warning" false (Diag.has_errors diags)

(* ------------------------------------------------------------------ *)
(* missed-anchor core on fabricated tables                             *)

let entry ?(anchor = false) ?site ?pioneer ~id ~iid ~node () =
  {
    Unified.ue_id = id;
    ue_iid = iid;
    ue_func = "f";
    ue_is_anchor = anchor;
    ue_site = site;
    ue_parent = None;
    ue_pioneer = pioneer;
    ue_node = node;
  }

let test_missed_anchor_fabricated () =
  let always_prone ~store:_ _ = true in
  let never_prone ~store:_ _ = false in
  let is_store _ = false in
  (* a prone access with no anchor and no pioneer: error *)
  let orphan = [| entry ~id:0 ~iid:10 ~node:7 () |] in
  let diags =
    Lints.missed_anchor_entries ~instrumented:true ~ab:0 ~is_store
      ~prone:always_prone orphan
  in
  Alcotest.(check int) "orphan flagged" 1 (List.length diags);
  Alcotest.(check bool) "as an error" true (Diag.has_errors diags);
  (* same table, but the node is not conflict-prone: clean *)
  let diags =
    Lints.missed_anchor_entries ~instrumented:true ~ab:0 ~is_store
      ~prone:never_prone orphan
  in
  Alcotest.(check int) "not prone, not flagged" 0 (List.length diags);
  (* prone access covered by a pioneer with an ALP site: clean *)
  let covered =
    [|
      entry ~anchor:true ~site:3 ~id:0 ~iid:10 ~node:7 ();
      entry ~pioneer:0 ~id:1 ~iid:11 ~node:7 ();
    |]
  in
  let diags =
    Lints.missed_anchor_entries ~instrumented:true ~ab:0 ~is_store
      ~prone:always_prone covered
  in
  Alcotest.(check int) "covered table clean" 0 (List.length diags);
  (* instrumented pipeline whose anchor lost its ALP site: error *)
  let siteless =
    [|
      entry ~anchor:true ~id:0 ~iid:10 ~node:7 ();
      entry ~pioneer:0 ~id:1 ~iid:11 ~node:7 ();
    |]
  in
  let diags =
    Lints.missed_anchor_entries ~instrumented:true ~ab:0 ~is_store
      ~prone:always_prone siteless
  in
  Alcotest.(check int) "siteless anchor flagged for both entries" 2
    (List.length diags)

(* ------------------------------------------------------------------ *)
(* truncated-PC collisions                                             *)

(* Two loads of the same node exactly 1024 instructions apart: their PCs
   differ by 4096, so the low 12 bits coincide and the hardware tag
   cannot tell them apart. *)
let build_collision_program () =
  let p = Ir.create_program () in
  Ir.add_struct p (Types.make "cell" [ word_field ]);
  let b = Builder.create p "root" ~params:[ "ptr" ] in
  let acc = Builder.reg b "acc" in
  Builder.load_to b acc (Builder.param b "ptr");
  (* 1023 filler instructions *)
  for i = 1 to 1023 do
    Builder.mov b acc (Ir.Imm i)
  done;
  Builder.load_to b acc (Builder.param b "ptr");
  Builder.store b ~addr:(Builder.param b "ptr") (Ir.Reg acc);
  Builder.ret b None;
  ignore (Builder.finish b);
  ignore (Ir.add_atomic p ~name:"root" ~func:"root");
  p

let test_truncated_pc_collision () =
  let p = build_collision_program () in
  let c = Pipeline.compile ~instrument:false p in
  let table = Pipeline.table_for c ~ab:0 in
  let entries = Unified.entries table in
  (* sanity: the two loads really fold onto one tag *)
  let pc_of e = Stx_tir.Layout.pc_of_iid c.Pipeline.layout e.Unified.ue_iid in
  let load0 = entries.(0) and load1 = entries.(1) in
  Alcotest.(check int) "pcs 4096 apart" 4096 (abs (pc_of load1 - pc_of load0));
  let tag = Stx_tir.Layout.truncate ~bits:c.Pipeline.pc_bits (pc_of load0) in
  Alcotest.(check int) "same tag" tag
    (Stx_tir.Layout.truncate ~bits:c.Pipeline.pc_bits (pc_of load1));
  (* the hardware lookup resolves to the first entry in table order *)
  (match Unified.search_by_truncated_pc table tag with
  | Some e -> Alcotest.(check int) "resolves to first entry" load0.Unified.ue_id
                e.Unified.ue_id
  | None -> Alcotest.fail "truncated lookup found nothing");
  (* the collision is reported *)
  Alcotest.(check bool) "tag ambiguous" true (Unified.tag_ambiguous table tag);
  Alcotest.(check int) "one shadowed entry" 1 (Unified.collision_count table);
  (match Unified.collisions table with
  | [ (t, ids) ] ->
    Alcotest.(check int) "collision tag" tag t;
    Alcotest.(check (list int)) "colliding ids in resolution order"
      [ load0.Unified.ue_id; load1.Unified.ue_id ]
      ids
  | other ->
    Alcotest.fail
      (Printf.sprintf "expected one collision group, got %d"
         (List.length other)));
  (* and surfaces as an STX105 warning *)
  let diags = Lints.truncated_pc c in
  Alcotest.(check int) "STX105 emitted" 1 (List.length diags);
  Alcotest.(check bool) "as a warning, not an error" false
    (Diag.has_errors diags)

let test_no_collision_on_workloads () =
  (* the shipped workloads are small enough to fit 12 bits cleanly; the
     lint must not cry wolf on multi-context tables (same iid, several
     entries) *)
  List.iter
    (fun w ->
      let c = compile_workload w in
      Array.iter
        (fun table ->
          Alcotest.(check int)
            (w.Stx_workloads.Workload.name ^ " collision-free")
            0
            (Unified.collision_count table))
        c.Pipeline.unified)
    Stx_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* trace validation                                                    *)

let traced_run ?(threads = 4) ?(mode = Stx_core.Mode.Baseline) ~scale w =
  let spec =
    Stx_workloads.Workload.spec
      ~instrument:(Stx_core.Mode.uses_alps mode)
      ~scale w
  in
  let tr = Stx_trace.Trace.create ~threads () in
  let stats =
    Machine.run ~seed:7
      ~cfg:(Stx_machine.Config.with_cores threads Stx_machine.Config.default)
      ~mode
      ~on_event:(Stx_trace.Trace.handler tr)
      spec
  in
  (spec, tr, stats)

let test_validation_sound_on_real_run () =
  let w =
    match Stx_workloads.Registry.find "list-hi" with
    | Some w -> w
    | None -> Alcotest.fail "list-hi missing"
  in
  let spec, tr, _ = traced_run ~scale:0.3 w in
  let a = Driver.analyze ~name:"list-hi" spec.Machine.compiled in
  let v = Driver.validate a tr in
  Alcotest.(check bool) "saw conflicts" true (v.Validate.v_conflict_aborts > 0);
  Alcotest.(check bool) "sound" true (Validate.sound v);
  Alcotest.(check bool) "some predicted edge observed" true
    (v.Validate.v_observed > 0);
  Alcotest.(check bool) "precision within [0,1]" true
    (let pr = Validate.precision v in
     pr >= 0.0 && pr <= 1.0)

let test_validation_detects_unpredicted_edge () =
  (* a fabricated abort between provably disjoint blocks must be flagged *)
  let p, ab_a, ab_b = build_disjoint_program () in
  let c = Pipeline.compile ~instrument:false p in
  let sums = Summary.compute c.Pipeline.prog c.Pipeline.dsa in
  let g = Conflict.compute c.Pipeline.prog c.Pipeline.dsa sums in
  let tr = Stx_trace.Trace.create ~threads:2 () in
  let push = Stx_trace.Trace.handler tr in
  push ~time:0 (Machine.Tx_begin { tid = 0; ab = ab_a; attempt = 1; probe = false });
  push ~time:0 (Machine.Tx_begin { tid = 1; ab = ab_b; attempt = 1; probe = false });
  push ~time:5
    (Machine.Tx_abort
       {
         tid = 1;
         ab = ab_b;
         kind = Machine.Conflict;
         conf_line = Some 64;
         conf_pc = None;
         aggressor = Some 0;
         cycles = 5;
         rset = 1;
         wset = 1;
         probe = false;
       });
  let plane = Layout.build c.Pipeline.prog c.Pipeline.dsa g in
  let v = Validate.run ~ctx:(c, plane) g tr in
  Alcotest.(check bool) "unsound" false (Validate.sound v);
  Alcotest.(check int) "one unpredicted edge" 1
    (List.length v.Validate.v_unsound);
  match v.Validate.v_unsound with
  | [ e ] ->
    Alcotest.(check bool) "attributed to bump_a" true
      (e.Validate.e_src = Conflict.Ab ab_a);
    Alcotest.(check int) "victim is bump_b" ab_b e.Validate.e_dst
  | _ -> Alcotest.fail "expected exactly one unsound edge"

(* ------------------------------------------------------------------ *)
(* line plane: adversarial layouts                                     *)

(* two atomic blocks hammering DISTINCT fields of one shared object;
   [padded] pushes the second hot field onto its own cache line *)
let build_two_field_program ~padded () =
  let p = Ir.create_program () in
  let fields =
    if padded then
      ("x", Types.Scalar)
      :: (List.init 7 (fun i -> (Printf.sprintf "pad%d" i, Types.Scalar))
         @ [ ("y", Types.Scalar) ])
    else [ ("x", Types.Scalar); ("y", Types.Scalar) ]
  in
  Ir.add_struct p (Types.make "pair" fields);
  let mk fname field =
    let b = Builder.create p fname ~params:[ "p" ] in
    let addr = Builder.gep b (Builder.param b "p") "pair" field in
    let v = Builder.load b addr in
    let v' = Builder.bin b Ir.Add v (Ir.Imm 1) in
    Builder.store b ~addr v';
    Builder.ret b None;
    ignore (Builder.finish b);
    Ir.add_atomic p ~name:fname ~func:fname
  in
  let ab_x = mk "bump_x" "x" in
  let ab_y = mk "bump_y" "y" in
  let b = Builder.create p "main" ~params:[ "p" ] in
  Builder.atomic_call b ab_x [ Builder.param b "p" ];
  Builder.atomic_call b ab_y [ Builder.param b "p" ];
  Builder.ret b None;
  ignore (Builder.finish b);
  (p, ab_x, ab_y)

let has_code cd (d : Diag.t) = d.Diag.code = cd

let test_false_sharing_packed_vs_padded () =
  (* packed: x and y share line 0 -> STX106 + STX108 and the cross edge
     refines to a false-sharing pair *)
  let p, ab_x, ab_y = build_two_field_program ~padded:false () in
  let c = Pipeline.compile ~instrument:false p in
  let a = Driver.analyze ~name:"packed" c in
  Alcotest.(check bool) "packed: STX106 fired" true
    (List.exists (has_code "STX106") a.Driver.a_diags);
  Alcotest.(check bool) "packed: STX108 fix-it fired" true
    (List.exists (has_code "STX108") a.Driver.a_diags);
  let prs = Layout.pairs a.Driver.a_plane ~src:(Conflict.Ab ab_x) ~dst:ab_y in
  Alcotest.(check bool) "packed: cross edge has a false pair on line 0" true
    (List.exists
       (fun (pr : Layout.pair) ->
         pr.Layout.p_sharing = Layout.False_sharing
         && pr.Layout.p_line = Some 0)
       prs);
  (* padded: y moves onto its own line -> silent, cross edge refined away *)
  let p, ab_x, ab_y = build_two_field_program ~padded:true () in
  let c = Pipeline.compile ~instrument:false p in
  let a = Driver.analyze ~name:"padded" c in
  Alcotest.(check bool) "padded: no STX106" false
    (List.exists (has_code "STX106") a.Driver.a_diags);
  Alcotest.(check bool) "padded: no STX108" false
    (List.exists (has_code "STX108") a.Driver.a_diags);
  Alcotest.(check int) "padded: cross edge refined away" 0
    (List.length (Layout.pairs a.Driver.a_plane ~src:(Conflict.Ab ab_x) ~dst:ab_y))

(* the tag verdict [hotspots] and trace validation share: bump_x's
   write dooms bump_y's access to y through line 0 alone when the fields
   are packed — the false-sharing verdict no workload reaches — and
   leaves no pair to cover the access once y is padded onto a line of
   its own *)
let test_classify_tag_packed_vs_padded () =
  let verdicts ~padded =
    let p, ab_x, ab_y = build_two_field_program ~padded () in
    let c = Pipeline.compile ~instrument:false p in
    let a = Driver.analyze ~name:"pair" c in
    let tags =
      Array.to_list (Unified.entries (Pipeline.table_for c ~ab:ab_y))
      |> List.map (fun (e : Unified.entry) ->
             Stx_tir.Layout.truncate ~bits:c.Pipeline.pc_bits
               (Stx_tir.Layout.pc_of_iid c.Pipeline.layout e.Unified.ue_iid))
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) "bump_y's table names its accesses" true (tags <> []);
    List.map
      (fun tag ->
        Validate.classify_tag c a.Driver.a_graph a.Driver.a_plane ~tag
          [ (ab_y, [ Conflict.Ab ab_x ]) ])
      tags
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "packed: false sharing" true
        (v = Some (Layout.Attributed Layout.False_sharing)))
    (verdicts ~padded:false);
  List.iter
    (fun v ->
      Alcotest.(check bool) "padded: resolved, but no sharing verdict" true
        (v = Some Layout.Unpredicted))
    (verdicts ~padded:true)

(* ------------------------------------------------------------------ *)
(* line plane: capacity bounds and STX107                              *)

(* one atomic block that unconditionally reads [nobjs] provably
   disjoint line-aligned objects and writes the first: its whole
   footprint is must-execute, so the plane's lower bound is exact *)
let build_wide_program ~nobjs () =
  let p = Ir.create_program () in
  Ir.add_struct p (Types.make "cell" [ word_field ]);
  let params = List.init nobjs (Printf.sprintf "p%d") in
  let b = Builder.create p "sweep" ~params in
  let acc = Builder.reg b "acc" in
  Builder.mov b acc (Ir.Imm 0);
  List.iter
    (fun pr ->
      let v = Builder.load b (Builder.gep b (Builder.param b pr) "cell" "v") in
      Builder.bin_to b acc Ir.Add (Ir.Reg acc) v)
    params;
  Builder.store b
    ~addr:(Builder.gep b (Builder.param b "p0") "cell" "v")
    (Ir.Reg acc);
  Builder.ret b None;
  ignore (Builder.finish b);
  let ab = Ir.add_atomic p ~name:"sweep" ~func:"sweep" in
  let b = Builder.create p "main" ~params:params in
  Builder.atomic_call b ab (List.map (Builder.param b) params);
  Builder.ret b None;
  ignore (Builder.finish b);
  (p, ab)

let test_capacity_bound_and_stx107 () =
  let p, ab = build_wide_program ~nobjs:6 () in
  let c = Pipeline.compile ~instrument:false p in
  let a = Driver.analyze ~name:"wide" c in
  let bound = Layout.capacity_bound a.Driver.a_plane ~ab in
  Alcotest.(check int) "min read lines" 6 bound.Layout.lb_min_read;
  Alcotest.(check int) "min write lines" 1 bound.Layout.lb_min_write;
  Alcotest.(check bool) "no aliased contribution" false bound.Layout.lb_aliased;
  let diags ~r ~w =
    Lints.capacity_overflow
      ~capacity:(Stx_policy.Capacity.Bounded { read_lines = r; write_lines = w })
      c a.Driver.a_plane
  in
  (* budget below the bound: the block can never commit -> error *)
  let d = diags ~r:4 ~w:4 in
  Alcotest.(check int) "always-overflow flagged" 1 (List.length d);
  Alcotest.(check bool) "as an error" true (Diag.has_errors d);
  (* budget exactly at the bound: no headroom -> info *)
  let d = diags ~r:6 ~w:4 in
  Alcotest.(check int) "no-headroom flagged" 1 (List.length d);
  Alcotest.(check bool) "as info, not error" false (Diag.has_errors d);
  (* roomy and unbounded budgets: silent *)
  Alcotest.(check int) "roomy budget silent" 0 (List.length (diags ~r:8 ~w:4));
  Alcotest.(check int) "unbounded silent" 0
    (List.length
       (Lints.capacity_overflow ~capacity:Stx_policy.Capacity.Unbounded c
          a.Driver.a_plane))

(* an STX107 always-overflow verdict is a claim about every execution:
   running the workload under the same budget must show Capacity aborts *)
let test_stx107_agrees_with_capacity_aborts () =
  let budget =
    Stx_policy.Capacity.Bounded { read_lines = 1; write_lines = 1 }
  in
  let checked = ref 0 in
  List.iter
    (fun name ->
      let w =
        match Stx_workloads.Registry.find name with
        | Some w -> w
        | None -> Alcotest.fail (name ^ " missing")
      in
      let spec = Stx_workloads.Workload.spec ~scale:0.12 w in
      let a = Driver.analyze ~name ~capacity:budget spec.Machine.compiled in
      let predicted =
        List.exists
          (fun (d : Diag.t) ->
            d.Diag.code = "STX107" && d.Diag.severity = Diag.Error)
          a.Driver.a_diags
      in
      if predicted then begin
        incr checked;
        let htm_policy = { Stx_policy.default with capacity = budget } in
        let stats =
          Machine.run ~seed:7 ~htm_policy
            ~cfg:(Stx_machine.Config.with_cores 4 Stx_machine.Config.default)
            ~mode:Stx_core.Mode.Baseline spec
        in
        Alcotest.(check bool) (name ^ ": capacity aborts observed") true
          (stats.Stx_sim.Stats.capacity_aborts > 0)
      end)
    [ "genome"; "intruder"; "vacation"; "tsp"; "memcached" ];
  Alcotest.(check bool) "STX107 always-overflow predicted on >=3 workloads"
    true (!checked >= 3)

(* ------------------------------------------------------------------ *)
(* line attribution across the whole registry                          *)

let test_line_attribution_all_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun mode ->
          let spec, tr, _ = traced_run ~threads:4 ~mode ~scale:0.12 w in
          let a =
            Driver.analyze ~name:w.Stx_workloads.Workload.name
              spec.Machine.compiled
          in
          let v = Driver.validate a tr in
          let name =
            Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
              (Stx_core.Mode.to_string mode)
          in
          Alcotest.(check bool) (name ^ " sound") true (Validate.sound v);
          Alcotest.(check bool) (name ^ " line-sound") true
            (Validate.line_sound v);
          (* every predicted abort is classified: the per-trace sharing
             counters must add up to the predicted-edge abort total *)
          let predicted_aborts =
            List.fold_left
              (fun acc (e : Validate.edge) ->
                if List.mem e v.Validate.v_unsound then acc
                else acc + e.Validate.e_count)
              0 v.Validate.v_edges
          in
          Alcotest.(check int) (name ^ " classification adds up")
            predicted_aborts
            (v.Validate.v_true_sharing + v.Validate.v_false_sharing
           + v.Validate.v_sharing_unknown);
          let fr = Validate.false_sharing_fraction v in
          Alcotest.(check bool) (name ^ " fraction in [0,1]") true
            (fr >= 0.0 && fr <= 1.0))
        [
          Stx_core.Mode.Baseline; Stx_core.Mode.Addr_only;
          Stx_core.Mode.Staggered_sw; Stx_core.Mode.Staggered_hw;
        ])
    Stx_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* raw codec round-trip                                                *)

let test_codec_roundtrip () =
  let w =
    match Stx_workloads.Registry.find "list-lo" with
    | Some w -> w
    | None -> Alcotest.fail "list-lo missing"
  in
  let _, tr, stats = traced_run ~scale:0.2 w in
  let file = Filename.temp_file "stx_codec" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin file
        (Stx_trace.Trace.write_events
           ~meta:[ ("workload", "list-lo"); ("seed", "7") ]
           tr);
      let tr', meta = Stx_trace.Trace.read_events ~file in
      Alcotest.(check int) "same length" (Stx_trace.Trace.length tr)
        (Stx_trace.Trace.length tr');
      Alcotest.(check int) "same threads" (Stx_trace.Trace.threads tr)
        (Stx_trace.Trace.threads tr');
      Alcotest.(check (list (pair string string))) "meta preserved"
        [ ("workload", "list-lo"); ("seed", "7") ]
        meta;
      Alcotest.(check bool) "streams identical" true
        (Stx_trace.Trace.events tr = Stx_trace.Trace.events tr');
      (* the reloaded capture still reconciles against the run's stats *)
      match Stx_trace.Trace.check tr' stats with
      | Ok () -> ()
      | Error errs -> Alcotest.fail (String.concat "; " errs))

let test_codec_rejects_garbage () =
  let file = Filename.temp_file "stx_codec" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      output_string oc "not-a-trace 9\n";
      close_out oc;
      Alcotest.(check bool) "Codec_error raised" true
        (try
           ignore (Stx_trace.Trace.read_events ~file);
           false
         with Stx_trace.Trace.Codec_error _ -> true))

(* the ids a replay indexes per-thread arrays with are bounded by the
   codec: non-negative, threads and aggressors below the header's count *)
let test_codec_rejects_out_of_range_ids () =
  let file = Filename.temp_file "stx_codec" ".trace" in
  let capture events =
    Out_channel.with_open_bin file (fun oc ->
        output_string oc "stx-trace 5\nthreads 2\ndropped 0\n";
        Printf.fprintf oc "events %d\n" (List.length events);
        List.iter (fun l -> output_string oc (l ^ "\n")) events)
  in
  let rejected name events =
    capture events;
    Alcotest.(check bool) name true
      (try
         ignore (Stx_trace.Trace.read_events ~file);
         false
       with Stx_trace.Trace.Codec_error _ -> true)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let abort ~tid ~ab ~agg =
        Printf.sprintf "9 abort %d %d conflict 3 4 %s 9 1 1 0" tid ab agg
      in
      capture [ "0 begin 1 0 1 0"; abort ~tid:1 ~ab:0 ~agg:"0" ];
      Alcotest.(check int) "in range accepted" 2
        (Stx_trace.Trace.length (fst (Stx_trace.Trace.read_events ~file)));
      rejected "thread id" [ "0 begin 2 0 1 0" ];
      rejected "negative thread id" [ "0 begin -1 0 1 0" ];
      rejected "negative time" [ "-5 begin 0 0 1 0" ];
      rejected "aggressor id" [ abort ~tid:1 ~ab:0 ~agg:"2" ];
      rejected "negative block id" [ abort ~tid:1 ~ab:(-1) ~agg:"0" ])

(* STX109 reads only the by-line ranking, so a capture whose header
   claims the simulator's full 4096 cores costs it nothing per thread
   (a threads x threads aggressor matrix would be 128 MiB) *)
let test_stripe_aliasing_wide_capture () =
  let tr = Stx_trace.Trace.create ~threads:Stx_htm.Htm.max_cores () in
  Stx_trace.Trace.handler tr ~time:9
    (Machine.Tx_abort
       {
         tid = 4095; ab = 0; kind = Machine.Conflict; conf_line = Some 3;
         conf_pc = Some 4; aggressor = Some 0; cycles = 9; rset = 1; wset = 1;
         probe = false;
       });
  let before = Gc.allocated_bytes () in
  let diags = Lints.stripe_aliasing tr in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "one hot line aliases nothing" 0 (List.length diags);
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f bytes < 1 MB" bytes) true
    (bytes < 1e6)

let suite =
  [
    Alcotest.test_case "summary: disjoint program" `Quick test_summary_disjoint;
    Alcotest.test_case "conflict: disjoint graph" `Quick
      test_conflict_disjoint_graph;
    Alcotest.test_case "lint: clean on all workloads (both modes)" `Slow
      test_lint_clean_all_workloads;
    Alcotest.test_case "lint: read-only agrees on all workloads" `Slow
      test_read_only_agrees_all_workloads;
    Alcotest.test_case "lint: read-only mutation trips STX104" `Quick
      test_read_only_mutation_trips_lint;
    Alcotest.test_case "lint: missed-anchor on fabricated tables" `Quick
      test_missed_anchor_fabricated;
    Alcotest.test_case "lint: truncated-PC collision" `Quick
      test_truncated_pc_collision;
    Alcotest.test_case "lint: workload tables collision-free" `Slow
      test_no_collision_on_workloads;
    Alcotest.test_case "validate: sound on a real run" `Slow
      test_validation_sound_on_real_run;
    Alcotest.test_case "validate: detects unpredicted edge" `Quick
      test_validation_detects_unpredicted_edge;
    Alcotest.test_case "layout: packed fields flagged, padded silent" `Quick
      test_false_sharing_packed_vs_padded;
    Alcotest.test_case "validate: tag verdict, packed vs padded" `Quick
      test_classify_tag_packed_vs_padded;
    Alcotest.test_case "layout: capacity bound and STX107 severities" `Quick
      test_capacity_bound_and_stx107;
    Alcotest.test_case "layout: STX107 agrees with Capacity aborts" `Slow
      test_stx107_agrees_with_capacity_aborts;
    Alcotest.test_case "validate: line attribution on all workloads" `Slow
      test_line_attribution_all_workloads;
    Alcotest.test_case "codec: round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "codec: rejects out-of-range ids" `Quick
      test_codec_rejects_out_of_range_ids;
    Alcotest.test_case "lint: STX109 on a 4096-thread capture stays small" `Quick
      test_stripe_aliasing_wide_capture;
  ]
