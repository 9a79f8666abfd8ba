open Stx_util
open Stx_machine
open Stx_core
open Stx_sim
open Stx_workloads

let cfg16 = Config.default

(* A row whose every setting is the default is the context's own 16-core
   cell: each study that shows it reads the one simulation. *)
let run_custom ctx ?(policy = Policy.default_params)
    ?(pc_bits = Stx_compiler.Pipeline.default_pc_bits) ?(cfg = cfg16) ~mode w =
  if
    policy = Policy.default_params
    && pc_bits = Stx_compiler.Pipeline.default_pc_bits
    && cfg = cfg16
  then Exp.run ctx w mode
  else
    let scale = Exp.scale ctx in
    let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale ~pc_bits w in
    Machine.run ~seed:(Exp.seed ctx) ~policy ~cfg ~mode spec

(* every study's HTM reference is the same cell (16 cores, the default
   bundle, 12-bit tags), so one context simulates it once per workload *)
let baseline_cycles ctx w = (Exp.run ctx w Mode.Baseline).Stats.total_cycles

let subjects names =
  List.filter_map Registry.find names

let policy_thresholds ctx =
  let t = Table.create [ "Benchmark"; "PC_THR"; "ADDR_THR"; "vs HTM"; "aborts" ] in
  List.iter
    (fun w ->
      let base = baseline_cycles ctx w in
      List.iter
        (fun (pc_thr, addr_thr) ->
          let policy = { Policy.default_params with Policy.pc_thr; Policy.addr_thr } in
          let s = run_custom ctx ~policy ~mode:Mode.Staggered_hw w in
          Table.add_row t
            [
              w.Workload.name;
              string_of_int pc_thr;
              string_of_int addr_thr;
              Table.fmt_f (Stat.ratio base s.Stats.total_cycles);
              string_of_int s.Stats.aborts;
            ])
        [ (1, 1); (2, 2); (3, 3); (4, 4) ])
    (subjects [ "memcached"; "list-hi"; "vacation" ]);
  "Ablation: Figure 6 policy thresholds (activation evidence required).\n"
  ^ Table.render t

let waiter_cap ctx =
  let t = Table.create [ "Benchmark"; "cap"; "vs HTM"; "aborts"; "lock waits (cyc)" ] in
  List.iter
    (fun w ->
      let base = baseline_cycles ctx w in
      List.iter
        (fun cap ->
          let policy = { Policy.default_params with Policy.max_waiters = cap } in
          let s = run_custom ctx ~policy ~mode:Mode.Staggered_hw w in
          Table.add_row t
            [
              w.Workload.name;
              (if cap >= 1000 then "inf" else string_of_int cap);
              Table.fmt_f (Stat.ratio base s.Stats.total_cycles);
              string_of_int s.Stats.aborts;
              string_of_int s.Stats.lock_wait_cycles;
            ])
        [ 1; 2; 4; 1000 ])
    (subjects [ "intruder"; "memcached"; "list-lo"; "vacation" ]);
  "Ablation: advisory-lock convoy depth (waiters allowed per lock before\n"
  ^ "excess transactions proceed speculatively).\n" ^ Table.render t

let pc_tag_width ctx =
  let t = Table.create [ "Benchmark"; "tag bits"; "accuracy"; "vs HTM" ] in
  List.iter
    (fun w ->
      let base = baseline_cycles ctx w in
      List.iter
        (fun bits ->
          let s = run_custom ctx ~pc_bits:bits ~mode:Mode.Staggered_hw w in
          Table.add_row t
            [
              w.Workload.name;
              (if bits >= 62 then "full" else string_of_int bits);
              (if s.Stats.accuracy_total = 0 then "-"
               else Table.fmt_pct ~dec:1 (Stats.accuracy s));
              Table.fmt_f (Stat.ratio base s.Stats.total_cycles);
            ])
        [ 6; 8; 12; 62 ])
    (subjects [ "genome"; "memcached"; "list-hi" ]);
  "Ablation: conflicting-PC tag width (the paper uses 12 bits for <2.4%\n"
  ^ "L1 space overhead; narrower tags alias more).\n" ^ Table.render t

let lock_timeout ctx =
  let t = Table.create [ "Benchmark"; "timeout"; "vs HTM"; "timeouts"; "aborts" ] in
  List.iter
    (fun w ->
      let base = baseline_cycles ctx w in
      List.iter
        (fun timeout ->
          let policy = { Policy.default_params with Policy.lock_timeout = timeout } in
          let s = run_custom ctx ~policy ~mode:Mode.Staggered_hw w in
          Table.add_row t
            [
              w.Workload.name;
              string_of_int timeout;
              Table.fmt_f (Stat.ratio base s.Stats.total_cycles);
              string_of_int s.Stats.lock_timeouts;
              string_of_int s.Stats.aborts;
            ])
        [ 500; 2_000; 20_000; 100_000 ])
    (subjects [ "intruder"; "memcached" ]);
  "Ablation: advisory-lock acquire timeout (short timeouts release waiters\n"
  ^ "early; under requester-wins a released waiter can shoot down the\n"
  ^ "holder).\n" ^ Table.render t

let probe_period ctx =
  let t = Table.create [ "Benchmark"; "period"; "vs HTM"; "locks"; "aborts" ] in
  List.iter
    (fun w ->
      let base = baseline_cycles ctx w in
      List.iter
        (fun period ->
          let policy = { Policy.default_params with Policy.probe_period = period } in
          let s = run_custom ctx ~policy ~mode:Mode.Staggered_hw w in
          Table.add_row t
            [
              w.Workload.name;
              string_of_int period;
              Table.fmt_f (Stat.ratio base s.Stats.total_cycles);
              string_of_int s.Stats.lock_acquires;
              string_of_int s.Stats.aborts;
            ])
        [ 2; 4; 8; 32 ])
    (subjects [ "vacation"; "memcached"; "kmeans" ]);
  "Ablation: speculation-probe period (how often an armed context re-tests\n"
  ^ "plain speculation).\n" ^ Table.render t

let read_only_skip ctx =
  let t = Table.create [ "Benchmark"; "skip read-only"; "vs HTM"; "locks"; "aborts" ] in
  List.iter
    (fun w ->
      let base = baseline_cycles ctx w in
      List.iter
        (fun skip_read_only ->
          let policy = { Policy.default_params with Policy.skip_read_only } in
          let s = run_custom ctx ~policy ~mode:Mode.Staggered_hw w in
          Table.add_row t
            [
              w.Workload.name;
              (if skip_read_only then "yes" else "no");
              Table.fmt_f (Stat.ratio base s.Stats.total_cycles);
              string_of_int s.Stats.lock_acquires;
              string_of_int s.Stats.aborts;
            ])
        [ false; true ])
    (subjects [ "list-lo"; "list-hi"; "vacation" ]);
  "Ablation: never arm ALPs for compiler-proven read-only atomic blocks
"
  ^ "(their transactions abort no one; serializing them only buys back
"
  ^ "their own wasted work).
" ^ Table.render t

let lazy_variant ctx =
  let t =
    Table.create [ "Benchmark"; "protocol"; "runtime"; "vs eager HTM"; "aborts" ]
  in
  List.iter
    (fun w ->
      let eager_base = baseline_cycles ctx w in
      List.iter
        (fun (label, lazy_htm, mode) ->
          let s = run_custom ctx ~cfg:{ cfg16 with Config.lazy_htm } ~mode w in
          Table.add_row t
            [
              w.Workload.name;
              (if lazy_htm then "lazy" else "eager");
              label;
              Table.fmt_f (Stat.ratio eager_base s.Stats.total_cycles);
              string_of_int s.Stats.aborts;
            ])
        [
          ("HTM", false, Mode.Baseline);
          ("Staggered", false, Mode.Staggered_hw);
          ("HTM", true, Mode.Baseline);
          ("Staggered", true, Mode.Staggered_hw);
        ])
    (subjects [ "kmeans"; "list-hi"; "memcached"; "ssca2" ]);
  "Ablation: lazy (commit-time, committer-wins) vs eager (requester-wins)\n"
  ^ "conflict detection - the paper's future-work variant (section 8).\n"
  ^ "Staggering helps on both, as predicted: the mechanism is independent\n"
  ^ "of the underlying conflict-resolution strategy.\n" ^ Table.render t

let with_ctx study ?seed ?scale () = study (Exp.create ?seed ?scale ())

let all =
  with_ctx (fun ctx ->
      String.concat "\n"
        (List.map (fun study -> study ctx)
           [ policy_thresholds; waiter_cap; pc_tag_width; lock_timeout;
             probe_period; lazy_variant; read_only_skip ]))

let pc_tag_width = with_ctx pc_tag_width
