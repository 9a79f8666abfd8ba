(* Tuning the locking policy: run one benchmark under several policies,
   showing how the public API exposes the Figure 6 parameters (activation
   thresholds, promotion, probing) and the advisory-lock behaviour (waiter
   cap, timeout) in one record for experimentation — the paper's "wider
   range of run-time policies" future work. *)

open Stx_machine
open Stx_core
open Stx_sim
open Stx_workloads

let () =
  let w = Option.get (Registry.find "memcached") in
  let cfg = Config.with_cores 16 Config.default in
  let base =
    Machine.run ~seed:1 ~cfg ~mode:Mode.Baseline (Workload.spec ~instrument:false w)
  in
  Printf.printf "memcached baseline: %d cycles, %d aborts\n\n" base.Stats.total_cycles
    base.Stats.aborts;
  Printf.printf "%-34s %10s %8s %8s %8s\n" "configuration" "vs HTM" "aborts" "locks"
    "irrev";
  let show name ?policy () =
    let s =
      Machine.run ~seed:1 ?policy ~cfg ~mode:Mode.Staggered_hw (Workload.spec w)
    in
    Printf.printf "%-34s %9.2fx %8d %8d %8d\n" name
      (float_of_int base.Stats.total_cycles /. float_of_int s.Stats.total_cycles)
      s.Stats.aborts s.Stats.lock_acquires s.Stats.irrevocable_entries
  in
  show "default (paper thresholds)" ();
  show "eager activation (THR=1)"
    ~policy:{ Policy.default_params with Policy.pc_thr = 1; Policy.addr_thr = 1 }
    ();
  show "conservative activation (THR=4)"
    ~policy:{ Policy.default_params with Policy.pc_thr = 4; Policy.addr_thr = 4 }
    ();
  show "no promotion (PROM_THR=max)"
    ~policy:{ Policy.default_params with Policy.prom_thr = max_int }
    ();
  show "frequent probing (period 2)"
    ~policy:{ Policy.default_params with Policy.probe_period = 2 }
    ();
  show "deep convoys (waiters unbounded)"
    ~policy:{ Policy.default_params with Policy.max_waiters = 1_000_000 }
    ();
  show "single-waiter stagger"
    ~policy:{ Policy.default_params with Policy.max_waiters = 1 }
    ();
  show "impatient locks (timeout 1k)"
    ~policy:{ Policy.default_params with Policy.lock_timeout = 1_000 }
    ()
