open Stx_util
open Stx_machine
open Stx_core
open Stx_sim
open Stx_workloads

let yn share = if share >= 0.5 then "Y" else "N"

(* The cells each report reads from the Exp memo — what a driver should
   Exp.prefetch (through the domain pool) before rendering. Rendering
   never depends on prefetch: a missing cell just simulates on demand. *)

let seq_cells set = List.map (fun w -> (w, Mode.Baseline, 1)) set

let at_modes ctx modes set =
  List.concat_map
    (fun w -> List.map (fun m -> (w, m, Exp.threads ctx)) modes)
    set

let table1_cells ctx =
  seq_cells Registry.table1_set
  @ at_modes ctx [ Mode.Baseline ] Registry.table1_set

let table3_cells ctx =
  List.concat_map
    (fun w ->
      [
        (w, Mode.Baseline, 1);
        (w, Mode.Staggered_hw, 1);
        (w, Mode.Staggered_hw, Exp.threads ctx);
      ])
    Registry.all

let table4_cells ctx =
  seq_cells Registry.all @ at_modes ctx [ Mode.Baseline ] Registry.all

let fig7_cells ctx =
  at_modes ctx
    [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ]
    Registry.all

let fig8_cells ctx = at_modes ctx [ Mode.Baseline; Mode.Staggered_hw ] Registry.all

let granularity_cells ctx =
  at_modes ctx [ Mode.Baseline; Mode.Tx_sched; Mode.Staggered_hw ] Registry.all

let scaling_threads = [ 1; 2; 4; 8; 16 ]

let scaling_cells _ctx w =
  List.concat_map
    (fun n -> [ (w, Mode.Baseline, n); (w, Mode.Staggered_hw, n) ])
    scaling_threads

let table1 ctx =
  let t =
    Table.create
      [ "Benchmark"; "S"; "%I"; "W/U"; "Contention Source"; "LA"; "LP" ]
  in
  List.iter
    (fun w ->
      let s = Exp.run ctx w Mode.Baseline in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_f ~dec:1 (Exp.speedup ctx w s);
          Table.fmt_pct (Stats.pct_irrevocable s);
          Table.fmt_f (Stats.wasted_over_useful s);
          w.Workload.contention_source;
          yn (Stats.locality ~top:2 s.Stats.conf_addr_freq);
          (* a benchmark has PC locality when a handful of instructions
             (one per hot atomic block) cover most conflicts *)
          yn (Stats.locality ~top:4 s.Stats.conf_pc_freq);
        ])
    Registry.table1_set;
  "Table 1: HTM contention in representative benchmarks (16-thread baseline).\n"
  ^ "S: speedup over sequential. %I: txns forced irrevocable. W/U: wasted/useful\n"
  ^ "cycles. LA/LP: locality of contention addresses / PCs.\n" ^ Table.render t

let table2 () =
  "Table 2: configuration of the simulated machine.\n"
  ^ Format.asprintf "%a@\nStag.Trans. %d-bit PC tag per L1 cache line@." Config.pp
      Config.default Stx_compiler.Pipeline.default_pc_bits

let table3 ctx =
  let t =
    Table.create
      [
        "Program"; "ld/st"; "anchs"; "u-ops/txn"; "anchs/txn"; "time inc";
        "naive inc"; "Accuracy";
      ]
  in
  List.iter
    (fun w ->
      (* static stats from a fresh compile *)
      let compiled = Stx_compiler.Pipeline.compile (w.Workload.build ()) in
      let lds, anchors = Stx_compiler.Pipeline.static_stats compiled in
      (* dynamic stats: single-threaded instrumented vs uninstrumented *)
      let plain = Exp.sequential ctx w in
      let instr = Exp.run_at ctx w Mode.Staggered_hw ~threads:1 in
      let naive =
        (Exp.observe ~seed:(Exp.seed ctx) ~policy:(Exp.policy ctx) ~threads:1
           ~mode:Mode.Staggered_hw
           (Workload.spec ~anchor_mode:Stx_compiler.Anchors.Naive
              ~scale:(Exp.scale ctx) w))
          .Exp.stats
      in
      let inc a b = 100. *. (Stat.ratio a b -. 1.) in
      let hi = Exp.run ctx w Mode.Staggered_hw in
      Table.add_row t
        [
          w.Workload.name;
          string_of_int lds;
          string_of_int anchors;
          string_of_int
            (instr.Stats.committed_tx_insts / max 1 instr.Stats.commits);
          Table.fmt_f ~dec:1
            (Stat.ratio instr.Stats.alps_executed instr.Stats.commits);
          Table.fmt_pct ~dec:1
            (inc instr.Stats.total_cycles plain.Stats.total_cycles);
          Table.fmt_pct ~dec:1
            (inc naive.Stats.total_cycles plain.Stats.total_cycles);
          (if hi.Stats.accuracy_total = 0 then "-"
           else Table.fmt_pct ~dec:1 (Stats.accuracy hi));
        ])
    Registry.all;
  "Table 3: instrumentation statistics. Static: loads/stores analyzed and\n"
  ^ "anchors instrumented. Dynamic (1 thread): u-ops and executed anchors per\n"
  ^ "committed txn; execution-time increase of DSA-guided and naive\n"
  ^ "(every-load/store) instrumentation. Accuracy: % of contention aborts at 16\n"
  ^ "threads whose anchor the runtime identified exactly (vs the full-PC oracle).\n"
  ^ Table.render t

let table4 ctx =
  let t =
    Table.create
      [ "Program"; "Source"; "ABs"; "%TM"; "S"; "Abts/C"; "Contention" ]
  in
  List.iter
    (fun w ->
      let s = Exp.run ctx w Mode.Baseline in
      let prog = w.Workload.build () in
      Table.add_row t
        [
          w.Workload.name;
          w.Workload.source;
          string_of_int (Array.length prog.Stx_tir.Ir.atomics);
          Table.fmt_pct (Stats.pct_tx_time s);
          Table.fmt_f ~dec:1 (Exp.speedup ctx w s);
          Table.fmt_f (Stats.aborts_per_commit s);
          w.Workload.contention;
        ])
    Registry.all;
  "Table 4: benchmark characteristics (16-thread baseline HTM).\n"
  ^ "ABs: atomic blocks in the source. %TM: time in transactional mode.\n"
  ^ "S: speedup over sequential. Abts/C: aborts per commit.\n" ^ Table.render t

let bar width x xmax =
  let n = int_of_float (Float.round (x /. xmax *. float_of_int width)) in
  String.make (max 0 (min width n)) '#'

let fig7 ctx =
  let modes = [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ] in
  let t =
    Table.create
      ("Benchmark" :: List.map Mode.to_string modes @ [ "Staggered vs HTM" ])
  in
  let ratios = ref [] in
  List.iter
    (fun w ->
      let perf = List.map (fun m -> Exp.rel_performance ctx w m) modes in
      let stag = List.nth perf 3 in
      ratios := stag :: !ratios;
      Table.add_row t
        (w.Workload.name
        :: List.map (Table.fmt_f ~dec:2) perf
        @ [ bar 24 stag 2.0 ]))
    Registry.all;
  let hmean = Stat.harmonic_mean !ratios in
  "Figure 7: performance at 16 threads, normalized to the baseline HTM\n"
  ^ "(higher is better; bar scale 0..2x).\n" ^ Table.render t
  ^ Printf.sprintf
      "Harmonic mean of Staggered/HTM across all benchmarks: %.2fx (%+.0f%%)\n"
      hmean
      (100. *. (hmean -. 1.))

let fig8 ctx =
  let t =
    Table.create
      [
        "Benchmark"; "(a) A/C HTM"; "(a) A/C Stag"; "(b) W/U HTM"; "(b) W/U Stag";
        "abort cut";
      ]
  in
  let cuts = ref [] in
  List.iter
    (fun w ->
      let base = Exp.run ctx w Mode.Baseline in
      let stag = Exp.run ctx w Mode.Staggered_hw in
      let cut =
        100. *. (1. -. Stat.ratio stag.Stats.aborts (max 1 base.Stats.aborts))
      in
      (* like the paper, skip benchmarks with too few aborts to be
         meaningful when averaging the cut *)
      if base.Stats.aborts > base.Stats.commits / 10 then cuts := cut :: !cuts;
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_f (Stats.aborts_per_commit base);
          Table.fmt_f (Stats.aborts_per_commit stag);
          Table.fmt_f (Stats.wasted_over_useful base);
          Table.fmt_f (Stats.wasted_over_useful stag);
          Table.fmt_pct cut;
        ])
    Registry.all;
  let avg =
    if !cuts = [] then 0.
    else List.fold_left ( +. ) 0. !cuts /. float_of_int (List.length !cuts)
  in
  "Figure 8: (a) aborts per commit and (b) wasted/useful cycles,\n"
  ^ "baseline HTM vs Staggered Transactions, 16 threads.\n" ^ Table.render t
  ^ Printf.sprintf
      "Average abort reduction (benchmarks with meaningful abort counts): %.0f%%\n"
      avg

(* the paper repeats each run 5 times and reports the average; this variant
   of Figure 7 does the same across seeds and also reports the spread *)
let fig7_repeated ?(seeds = [ 1; 2; 3; 4; 5 ]) c =
  let ctxs =
    List.map
      (fun seed ->
        let ctx =
          Exp.create ~seed ~scale:(Exp.scale c) ~threads:(Exp.threads c)
            ~jobs:(Exp.jobs c) ~policy:(Exp.policy c) ()
        in
        Exp.prefetch ctx (fig8_cells ctx);
        ctx)
      seeds
  in
  let t =
    Table.create [ "Benchmark"; "Staggered vs HTM (mean)"; "stddev"; "min"; "max" ]
  in
  let means = ref [] in
  List.iter
    (fun w ->
      let acc = Stat.create () in
      List.iter
        (fun ctx -> Stat.add acc (Exp.rel_performance ctx w Mode.Staggered_hw))
        ctxs;
      means := Stat.mean acc :: !means;
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_f (Stat.mean acc);
          Table.fmt_f ~dec:3 (Stat.stddev acc);
          Table.fmt_f (Stat.min acc);
          Table.fmt_f (Stat.max acc);
        ])
    Registry.all;
  let hmean = Stat.harmonic_mean !means in
  Printf.sprintf
    "Figure 7 across %d seeds (the paper averages 5 repetitions per run).
%s     Harmonic mean of per-benchmark means: %.2fx (%+.0f%%)
"
    (List.length seeds) (Table.render t) hmean
    (100. *. (hmean -. 1.))

(* Result 2's comparison: whole-transaction scheduling serializes entire
   atomic blocks; staggering serializes only the conflicting portions *)
let granularity ctx =
  let t =
    Table.create [ "Benchmark"; "HTM"; "TxSched (whole txn)"; "Staggered (portion)" ]
  in
  List.iter
    (fun w ->
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_f ~dec:2 (Exp.rel_performance ctx w Mode.Baseline);
          Table.fmt_f ~dec:2 (Exp.rel_performance ctx w Mode.Tx_sched);
          Table.fmt_f ~dec:2 (Exp.rel_performance ctx w Mode.Staggered_hw);
        ])
    Registry.all;
  "Serialization granularity (cf. Result 2 and the Proactive Transaction
   Scheduling comparison in the related work): serializing whole
   transactions vs staggering only their conflicting portions.
"
  ^ Table.render t

(* Figure 1: three-plus transactions whose conflicting access sits in the
   middle; show the baseline thrash and the staggered schedule side by
   side, reconstructed from real runs *)
let fig1 () =
  let open Stx_tir in
  let build () =
    let p = Ir.create_program () in
    Ir.add_struct p (Types.make "cnt" [ ("value", Types.Scalar) ]);
    let b = Builder.create p "deposit" ~params:[ "cnt" ] in
    Builder.work b (Ir.Imm 150);
    let v = Builder.load b (Builder.gep b (Builder.param b "cnt") "cnt" "value") in
    Builder.work b (Ir.Imm 110);
    Builder.store b
      ~addr:(Builder.gep b (Builder.param b "cnt") "cnt" "value")
      (Builder.bin b Ir.Add v (Ir.Imm 1));
    Builder.ret b None;
    ignore (Builder.finish b);
    let ab = Ir.add_atomic p ~name:"deposit" ~func:"deposit" in
    let b = Builder.create p "main" ~params:[ "cnt"; "rounds" ] in
    Builder.for_ b ~from:(Ir.Imm 0) ~below:(Builder.param b "rounds") (fun b _ ->
        Builder.atomic_call b ab [ Builder.param b "cnt" ]);
    Builder.ret b None;
    ignore (Builder.finish b);
    p
  in
  let run mode =
    let compiled = Stx_compiler.Pipeline.compile (build ()) in
    let spec =
      {
        Machine.compiled;
        Machine.thread_main = "main";
        Machine.thread_args =
          (fun env ~threads ->
            let addr = Stx_machine.Alloc.alloc_shared env.Machine.alloc 1 in
            Array.make threads [| addr; 24 |]);
      }
    in
    let tl = Stx_trace.Trace.create ~threads:3 () in
    (* the schematic wants the pure mechanism: no probing, full convoys *)
    let policy =
      { Policy.default_params with Policy.probe_period = max_int; max_waiters = 16 }
    in
    let stats =
      Machine.run ~seed:5 ~policy
        ~cfg:(Stx_machine.Config.with_cores 3 Stx_machine.Config.default)
        ~mode ~on_event:(Stx_trace.Trace.handler tl) spec
    in
    (stats, tl)
  in
  let base, tl_base = run Mode.Baseline in
  let stag, tl_stag = run Mode.Staggered_hw in
  (* the staggered lanes are most instructive once training has converged:
     show matching windows from the middle of each run *)
  let window stats = (stats.Stats.total_cycles / 2, stats.Stats.total_cycles * 4 / 5) in
  let b0, b1 = window base and s0, s1 = window stag in
  Printf.sprintf
    "Figure 1: three threads, conflicting access mid-transaction\n\
     (matching mid-run windows; training has converged).\n\n\
     (a) eager HTM baseline - %d aborts, %d cycles:\n%s\n\
     (c) Staggered Transactions - %d aborts, %d cycles\n\
     (conflicting suffixes serialize behind the advisory lock, prefixes overlap):\n%s"
    base.Stats.aborts base.Stats.total_cycles
    (Timeline.render ~width:96 ~from_time:b0 ~until_time:b1 tl_base)
    stag.Stats.aborts stag.Stats.total_cycles
    (Timeline.render ~width:96 ~from_time:s0 ~until_time:s1 tl_stag)

let anchor_tables w =
  let compiled = Stx_compiler.Pipeline.compile (w.Workload.build ()) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Unified anchor tables for %s (cf. Figure 3):\n" w.Workload.name);
  Array.iter
    (fun table ->
      Buffer.add_string buf (Format.asprintf "%a@." Stx_compiler.Unified.pp table))
    compiled.Stx_compiler.Pipeline.unified;
  Buffer.contents buf

let hotspots ctx w =
  (* trace-backed: rerun the baseline with a full capture. The frequency
     tables could come from the cached counters, but the aggressor ->
     victim attribution only exists in the event stream *)
  let module Trace = Stx_trace.Trace in
  let threads = Exp.threads ctx in
  let spec = Workload.spec ~instrument:false ~scale:(Exp.scale ctx) w in
  let o =
    Exp.observe ~trace:true ~seed:(Exp.seed ctx) ~policy:(Exp.policy ctx)
      ~threads ~mode:Mode.Baseline spec
  in
  let tr = Option.get o.Exp.trace in
  let a = Trace.abort_attribution tr in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let t = Table.create [ "conflicting line"; "aborts"; "share" ] in
  List.iter
    (fun (line, c) ->
      Table.add_row t
        [
          string_of_int line;
          string_of_int c;
          Table.fmt_pct (Stat.percent c a.Trace.conflict_aborts);
        ])
    (take 8 a.Trace.by_line);
  let unified = spec.Machine.compiled.Stx_compiler.Pipeline.unified in
  let tag_ambiguous pc =
    Array.exists (fun tb -> Stx_compiler.Unified.tag_ambiguous tb pc) unified
  in
  (* line-plane attribution of each hot tag: resolve the victim access
     the tag names and ask the layout plane whether the conflicting
     pairs that reach it share the field (true) or only the line
     (false). The tag does not say which block the victim ran, so every
     block is asked, with every source the plane pairs with it.
     Ambiguous tags cannot be resolved; "-" = no conflicting pair
     reaches the access (e.g. an anchor entry nothing collides with at
     line granularity). *)
  let module An = Stx_analysis in
  let analysis =
    An.Driver.analyze ~name:w.Workload.name spec.Machine.compiled
  in
  let plane = analysis.An.Driver.a_plane in
  let victims =
    Array.to_list unified
    |> List.map (fun tb ->
           let ab = Stx_compiler.Unified.ab_id tb in
           ( ab,
             List.filter_map
               (fun (src, dst, _) -> if dst = ab then Some src else None)
               (An.Layout.edges plane) ))
  in
  let sharing_of_pc pc =
    if tag_ambiguous pc then "ambiguous"
    else
      match
        An.Validate.classify_tag spec.Machine.compiled
          analysis.An.Driver.a_graph plane ~tag:pc victims
      with
      | Some (An.Layout.Attributed An.Layout.True_sharing) -> "true"
      | Some (An.Layout.Attributed An.Layout.False_sharing) -> "false"
      | Some An.Layout.Unpredicted | None -> "-"
  in
  let t2 =
    Table.create [ "conflicting PC tag"; "aborts"; "share"; "lookup"; "sharing" ]
  in
  List.iter
    (fun (pc, c) ->
      Table.add_row t2
        [
          Printf.sprintf "0x%03x" pc;
          string_of_int c;
          Table.fmt_pct (Stat.percent c a.Trace.conflict_aborts);
          (if tag_ambiguous pc then "ambiguous" else "unique");
          sharing_of_pc pc;
        ])
    (take 8 a.Trace.by_pc);
  let t3 = Table.create [ "atomic block"; "conflict aborts"; "share" ] in
  List.iter
    (fun (ab, c) ->
      Table.add_row t3
        [
          Printf.sprintf "ab%d" ab;
          string_of_int c;
          Table.fmt_pct (Stat.percent c a.Trace.conflict_aborts);
        ])
    (take 8 a.Trace.by_ab);
  (* aggressor -> victim matrix, aggressors with casualties only *)
  let tm =
    Table.create
      ("agg \\ vic" :: List.init threads (fun v -> Printf.sprintf "t%d" v))
  in
  for agg = 0 to threads - 1 do
    let row_total = Array.fold_left ( + ) 0 a.Trace.agg_matrix.(agg) in
    if row_total > 0 then
      Table.add_row tm
        (Printf.sprintf "t%d" agg
        :: List.init threads (fun v ->
               match a.Trace.agg_matrix.(agg).(v) with
               | 0 -> "."
               | c -> string_of_int c))
  done;
  let collisions =
    let per_table =
      Array.to_list unified
      |> List.concat_map (fun tb ->
             match Stx_compiler.Unified.collisions tb with
             | [] -> []
             | cs ->
               [
                 Printf.sprintf "  ab%d: %d shadowed entr(ies) behind tag(s) %s"
                   (Stx_compiler.Unified.ab_id tb)
                   (Stx_compiler.Unified.collision_count tb)
                   (String.concat " "
                      (List.map
                         (fun (tag, _) -> Printf.sprintf "0x%03x" tag)
                         cs));
               ])
    in
    match per_table with
    | [] -> "Truncated-PC tags are collision-free in every unified table.\n"
    | ls ->
      "Truncated-PC tag collisions (hardware lookups resolve to the first \
       entry):\n" ^ String.concat "\n" ls ^ "\n"
  in
  ( Printf.sprintf
      "Conflict hot spots of %s (baseline, %d threads): the raw material the
     locking policy works from. Trace-backed: %d events, %d conflict aborts
     (%d of them without an attributable aggressor).
%s
%s
%s
%s
Aggressor -> victim conflict aborts (rows: aggressor core; '.' = 0):
%s"
      w.Workload.name threads (Trace.length tr) a.Trace.conflict_aborts
      a.Trace.unattributed (Table.render t) (Table.render t2) (Table.render t3)
      collisions (Table.render tm),
    Exp.failures o )

let ab_name w =
  let atomics = (w.Workload.build ()).Stx_tir.Ir.atomics in
  fun id ->
    if id >= 0 && id < Array.length atomics then
      Printf.sprintf "%d:%s" id atomics.(id).Stx_tir.Ir.ab_name
    else string_of_int id

(* Exp cells run bare: the profile collects its own four cells, on the
   pool, and returns their registries with every cell's errors *)
let profile_registries ctx w =
  let cell mode () =
    let spec =
      Workload.spec ~instrument:(Mode.uses_alps mode) ~scale:(Exp.scale ctx) w
    in
    let o =
      Exp.observe ~metrics:true ~seed:(Exp.seed ctx) ~policy:(Exp.policy ctx)
        ~threads:(Exp.threads ctx) ~mode spec
    in
    ( (mode, Stx_metrics.Collect.registry (Option.get o.Exp.metrics)),
      List.map (( ^ ) (Mode.to_string mode ^ ": ")) (Exp.failures o) )
  in
  let cells =
    Array.map cell
      [| Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw |]
    |> Stx_runner.Pool.map ~jobs:(Exp.jobs ctx)
    |> Array.to_list
    |> List.map (function
         | Stx_runner.Pool.Done r -> r
         | Stx_runner.Pool.Failed msg -> failwith ("profile cell failed: " ^ msg))
  in
  (List.map fst cells, List.concat_map snd cells)

let profile ctx w =
  let module C = Stx_metrics.Collect in
  let module H = Stx_metrics.Hist in
  let ab_name = ab_name w in
  let regs, errs = profile_registries ctx w in
  let t =
    Table.create
      [
        "Mode"; "atomic block"; "prefix"; "lock wait"; "suffix"; "irrev";
        "suffix%"; "wasted"; "backoff";
      ]
  in
  List.iter
    (fun (m, reg) ->
      List.iter
        (fun ab ->
          let p ph = C.phase_cycles reg ~ab ph in
          let prefix = p C.Prefix
          and wait = p C.Lock_wait
          and suffix = p C.Suffix
          and irrev = p C.Irrevocable in
          let committed = prefix + wait + suffix + irrev in
          Table.add_row t
            [
              Mode.to_string m;
              ab_name ab;
              string_of_int prefix;
              string_of_int wait;
              string_of_int suffix;
              string_of_int irrev;
              Table.fmt_pct ~dec:1 (Stat.percent suffix (max 1 committed));
              string_of_int (p C.Wasted);
              string_of_int (p C.Backoff);
            ])
        (C.abs_profiled reg))
    regs;
  let lt =
    Table.create
      [
        "Mode"; "commit p50"; "commit p99"; "abort p99"; "retries mean";
        "lock-wait p99";
      ]
  in
  List.iter
    (fun (m, reg) ->
      (* label-subset reads: every series carries the run's policy label;
         an empty histogram (HTM takes no advisory locks) prints "-" *)
      let hist name labels = C.histogram reg name labels in
      let show f h = if H.is_empty h then "-" else f h in
      let q f = show (fun h -> string_of_int (f h)) in
      let commit_h = hist "stx_tx_latency_cycles" [ ("outcome", "commit") ] in
      let abort_h = hist "stx_tx_latency_cycles" [ ("outcome", "abort") ] in
      let wait_h = hist "stx_lock_wait_cycles" [ ("outcome", "acquired") ] in
      Table.add_row lt
        [
          Mode.to_string m;
          q H.p50 commit_h;
          q H.p99 commit_h;
          q H.p99 abort_h;
          show (fun h -> Table.fmt_f ~dec:2 (H.mean h)) (hist "stx_tx_retries" []);
          q H.p99 wait_h;
        ])
    regs;
  ( Printf.sprintf
      "Phase profile of %s (%d threads): committed transaction cycles split at\n\
       the first advisory-lock acquire — speculative prefix runs in parallel,\n\
       the suffix is serialized behind the lock. The baseline takes no advisory\n\
       locks, so its committed cycles are all prefix; staggered modes serialize\n\
       only the conflicting portion (cf. Figure 1 and Result 2).\n%s\n\
       Per-attempt distributions (cycles; quantiles bucketed to powers of two):\n%s"
      w.Workload.name (Exp.threads ctx) (Table.render t) (Table.render lt),
    errs )

let profile_tsv ctx w =
  let module C = Stx_metrics.Collect in
  let prog = w.Workload.build () in
  let ab_name id =
    let atomics = prog.Stx_tir.Ir.atomics in
    if id >= 0 && id < Array.length atomics then atomics.(id).Stx_tir.Ir.ab_name
    else string_of_int id
  in
  let esc = Stx_analysis.Diag.tsv_escape in
  let regs, errs = profile_registries ctx w in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "workload\tmode\tab\tab_name\tprefix\tlock_wait\tsuffix\tirrevocable\tstm\twasted\tbackoff\n";
  List.iter
    (fun (m, reg) ->
      List.iter
        (fun ab ->
          let p ph = C.phase_cycles reg ~ab ph in
          Buffer.add_string b
            (String.concat "\t"
               [
                 esc w.Workload.name;
                 Mode.to_string m;
                 string_of_int ab;
                 esc (ab_name ab);
                 string_of_int (p C.Prefix);
                 string_of_int (p C.Lock_wait);
                 string_of_int (p C.Suffix);
                 string_of_int (p C.Irrevocable);
                 string_of_int (p C.Stm);
                 string_of_int (p C.Wasted);
                 string_of_int (p C.Backoff);
               ]);
          Buffer.add_char b '\n')
        (C.abs_profiled reg))
    regs;
  (Buffer.contents b, errs)

let scaling ctx w =
  let t = Table.create [ "Threads"; "HTM speedup"; "Staggered speedup" ] in
  List.iter
    (fun n ->
      let base = Exp.run_at ctx w Mode.Baseline ~threads:n in
      let stag = Exp.run_at ctx w Mode.Staggered_hw ~threads:n in
      Table.add_row t
        [
          string_of_int n;
          Table.fmt_f (Exp.speedup ctx w base);
          Table.fmt_f (Exp.speedup ctx w stag);
        ])
    scaling_threads;
  Printf.sprintf "Scalability of %s:\n" w.Workload.name ^ Table.render t
