open Stx_tir
open Stx_machine
open Stx_compiler
open Stx_htm
open Stx_core
module Stm = Stx_stm.Stm

exception Sim_error of string

let trap fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type abort_kind =
  | Conflict
  | Lock_subscription
  | Capacity
  | Explicit
  | Stm_conflict (* a software-tier commit published into the footprint *)

type stm_abort_kind = Stm_validation | Stm_hw_owned | Stm_locksub | Stm_explicit

type event =
  | Tx_begin of { tid : int; ab : int; attempt : int; probe : bool }
  | Tx_commit of {
      tid : int;
      ab : int;
      cycles : int;
      irrevocable : bool;
      rset : int;
      wset : int;
      probe : bool;
    }
  | Tx_abort of {
      tid : int;
      ab : int;
      kind : abort_kind;
      conf_line : int option;
      conf_pc : int option;
      aggressor : int option;
      cycles : int;
      rset : int;
      wset : int;
      probe : bool;
    }
  | Tx_irrevocable of { tid : int; ab : int }
  | Alp_executed of { tid : int; ab : int; site : int; fired : bool }
  | Lock_attempt of { tid : int; lock : int; line : int }
  | Lock_acquired of { tid : int; lock : int; line : int }
  | Lock_released of { tid : int; lock : int; committed : bool }
  | Lock_waiting of { tid : int; lock : int }
  | Lock_timeout of { tid : int; lock : int }
  | Backoff_start of { tid : int }
  | Backoff_end of { tid : int }
  | Req_dispatch of { tid : int; req : int; ab : int }
  | Req_done of { tid : int; req : int; ab : int }
  | Stm_begin of { tid : int; ab : int; attempt : int }
  | Stm_commit of {
      tid : int;
      ab : int;
      cycles : int;
      vcycles : int; (* version-word traffic charged at commit *)
      rset : int;
      wset : int;
    }
  | Stm_abort of {
      tid : int;
      ab : int;
      kind : stm_abort_kind;
      cycles : int;
      vcycles : int;
      rset : int;
      wset : int;
    }

let tid_of = function
  | Tx_begin { tid; _ }
  | Tx_commit { tid; _ }
  | Tx_abort { tid; _ }
  | Tx_irrevocable { tid; _ }
  | Alp_executed { tid; _ }
  | Lock_attempt { tid; _ }
  | Lock_acquired { tid; _ }
  | Lock_released { tid; _ }
  | Lock_waiting { tid; _ }
  | Lock_timeout { tid; _ }
  | Backoff_start { tid }
  | Backoff_end { tid }
  | Req_dispatch { tid; _ }
  | Req_done { tid; _ }
  | Stm_begin { tid; _ }
  | Stm_commit { tid; _ }
  | Stm_abort { tid; _ } -> tid

let ab_of = function
  | Tx_begin { ab; _ }
  | Tx_commit { ab; _ }
  | Tx_abort { ab; _ }
  | Tx_irrevocable { ab; _ }
  | Alp_executed { ab; _ }
  | Req_dispatch { ab; _ }
  | Req_done { ab; _ }
  | Stm_begin { ab; _ }
  | Stm_commit { ab; _ }
  | Stm_abort { ab; _ } ->
    Some ab
  | Lock_attempt _ | Lock_acquired _ | Lock_released _ | Lock_waiting _
  | Lock_timeout _ | Backoff_start _ | Backoff_end _ ->
    None

let abort_label = function
  | Conflict -> "conflict"
  | Lock_subscription -> "lock_subscription"
  | Capacity -> "capacity"
  | Explicit -> "explicit"
  | Stm_conflict -> "stm_conflict"

let stm_abort_label = function
  | Stm_validation -> "stm_validation"
  | Stm_hw_owned -> "stm_hw_owned"
  | Stm_locksub -> "stm_lock_subscription"
  | Stm_explicit -> "stm_explicit"

type injection =
  | Inject of { req : int; ab : int; args : int array }
  | Idle_until of int
  | Drained

type setup_env = { memory : Memory.t; alloc : Alloc.t; setup_rng : Stx_util.Rng.t }

type spec = {
  compiled : Pipeline.t;
  thread_main : string;
  thread_args : setup_env -> threads:int -> int array array;
}

(* A function plus its resolved jump table: [ttgt.(2*bi)] / [ttgt.(2*bi+1)]
   are the block indexes of block [bi]'s Jmp / Br targets (-1 unused), so
   taking a branch never re-scans block labels. Resolved lazily, once per
   call site / atomic block, and cached. *)
type tgt = { tfn : Ir.func; ttgt : int array }

let resolve_targets (fn : Ir.func) =
  let n = Array.length fn.Ir.blocks in
  let t = Array.make (2 * n) (-1) in
  for bi = 0 to n - 1 do
    match fn.Ir.blocks.(bi).Ir.term with
    | Ir.Jmp l -> t.(2 * bi) <- Ir.block_index fn l
    | Ir.Br (_, l1, l2) ->
      t.(2 * bi) <- Ir.block_index fn l1;
      t.(2 * bi + 1) <- Ir.block_index fn l2
    | Ir.Ret _ -> ()
  done;
  t

(* Call frames live in a per-thread pool indexed by depth: a call reuses
   the record (and its register array) left by the last frame at that
   depth, so the steady state pushes and pops without allocating. *)
type frame = {
  mutable func : Ir.func;
  mutable tgt : int array; (* the func's resolved jump table *)
  mutable bi : int;
  mutable insts : Ir.inst array; (* blocks.(bi).insts, cached at block entry *)
  mutable ip : int;
  mutable regs : int array; (* live prefix [0, func.nregs), zeroed on push *)
  mutable ret_dst : int; (* destination register in the parent frame; -1 none *)
}

type wait = Lock_spin of { idx : int; line : int; deadline : int } | Global_spin

(* Where an attempt runs: speculatively in hardware, on the software tier
   (htm-stm-lock only), or under the global lock. An atomic call starts
   in [Hw]; the fallback ladder only ever moves it down. *)
type tier = Hw | Sw | Irrevocable

(* One pooled record per thread, reset by [start_atomic]; [tx_active] on
   the thread plays the role the option wrapper used to. *)
type txstate = {
  mutable tx_ab : int;
  mutable tx_dst : int; (* destination register in the caller; -1 none *)
  mutable tx_args : int array; (* live prefix [0, tx_nargs) *)
  mutable tx_nargs : int;
  mutable tx_base_depth : int;
  mutable tx_attempt : int;
  mutable tx_start : int;
  mutable tx_insts : int; (* instructions in the current attempt *)
  mutable tx_lock : int; (* advisory lock index; -1 none *)
  mutable tx_held_lock : bool; (* a lock was held at some point this attempt *)
  mutable tx_is_probe : bool; (* this attempt deliberately skipped its ALP *)
  mutable tx_tier : tier;
  mutable tx_stm_attempts : int; (* software attempts so far *)
}

type thread = {
  tid : int;
  mutable time : int;
  mutable frames : frame array; (* pooled call stack; live prefix [0, depth) *)
  mutable depth : int;
  mutable argbuf : int array; (* call-argument scratch, fully consumed by push *)
  mutable finished : bool;
  mutable wait : wait option;
  txs : txstate;
  mutable tx_active : bool;
  rng : Stx_util.Rng.t;
  backoff_rng : Stx_util.Rng.t;
      (* dedicated stream for the Backoff fallback policy, so the backoff
         schedule never perturbs the workload's own random choices *)
  mutable cur_req : int; (* request being served under an injector; -1 idle *)
  contexts : Abcontext.t array;
  softcpc : Softcpc.t;
  mutable parked : bool; (* failed a global-lock recheck; asleep until release *)
  ra_time : int array; (* run-ahead log: start cycle of each op run ahead *)
  ra_insts : int array; (* ... and the attempt's [tx_insts] before it *)
  mutable ra_len : int;
}

type m = {
  cfg : Config.t;
  mode : Mode.t;
  policy : Policy.params;
  htm_policy : Stx_policy.t;
  retry_budget : int; (* hardware attempts before going irrevocable *)
  lock_timeout : int;
  max_waiters : int;
  compiled : Pipeline.t;
  memory : Memory.t;
  hier : Hierarchy.t;
  htm : Htm.t;
  stm : Stm.t option; (* software tier, Stm_tier fallback only *)
  stm_retries : int; (* software attempts before the global lock *)
  locks : Advisory_lock.t;
  threads : thread array;
  allocator : Alloc.t;
  stats : Stats.t;
  evt : bool; (* an [on_event] consumer exists: build and emit events *)
  on_event : time:int -> event -> unit;
  injector : (tid:int -> now:int -> injection) option;
  callee : tgt option array; (* per call-site iid: resolved callee *)
  ab_roots : tgt option array; (* per atomic block: resolved root function *)
  pcs : int array; (* per load/store iid: truncated PC (min_int unresolved) *)
  ssizes : int array; (* per alloc iid: struct size in words (-1 unresolved) *)
  line_shift : int; (* log2 words_per_line, -1 when not a power of two *)
  mutable steps : int;
  max_steps : int;
  pw : int; (* tournament leaves: the least power of two >= cores *)
  keys : int array; (* tournament tree over packed [time * pw + tid] keys *)
  mutable now_key : int; (* key of the step being executed *)
  mutable parked : int; (* threads parked on the global lock *)
}

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)

(* [Stdlib.max]/[min] are polymorphic calls (compare_val) without
   flambda; the per-step paths use these int versions *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

let wpl m = m.cfg.Config.words_per_line

let shift_of_pow2 n =
  if n > 0 && n land (n - 1) = 0 then begin
    let rec go s v = if v <= 1 then s else go (s + 1) (v lsr 1) in
    go 0 n
  end
  else -1

(* hot enough that the division is worth dodging: every memory access
   computes its line at least twice (latency charge + HTM set lookup) *)
let line_of m addr =
  if m.line_shift >= 0 then addr lsr m.line_shift else addr / wpl m

let emit m (th : thread) ev = m.on_event ~time:th.time ev

let in_tx th = th.tx_active

let speculative th =
  th.tx_active && match th.txs.tx_tier with Hw -> true | Sw | Irrevocable -> false

let stm_active th =
  th.tx_active && match th.txs.tx_tier with Sw -> true | Hw | Irrevocable -> false

let the_stm m =
  match m.stm with
  | Some stm -> stm
  | None -> trap "software tier used without the htm-stm-lock fallback"

let charge m th c =
  th.time <- th.time + c;
  if in_tx th then m.stats.Stats.tx_mode_cycles <- m.stats.Stats.tx_mode_cycles + c

let frame_of th =
  if th.depth = 0 then trap "thread %d has no frame" th.tid
  else th.frames.(th.depth - 1)

let ev (f : frame) = function Ir.Reg r -> f.regs.(r) | Ir.Imm n -> n

let check_addr m addr =
  if addr < wpl m then trap "invalid memory access at address %d (null page)" addr

let mem_latency m th ~addr ~write =
  Hierarchy.access m.hier ~core:th.tid ~line:(line_of m addr) ~write

let callee_of m iid g =
  match m.callee.(iid) with
  | Some tg -> tg
  | None ->
    let fn = Ir.find_func m.compiled.Pipeline.prog g in
    let tg = { tfn = fn; ttgt = resolve_targets fn } in
    m.callee.(iid) <- Some tg;
    tg

let ab_root m ab =
  match m.ab_roots.(ab) with
  | Some tg -> tg
  | None ->
    let fn =
      Ir.find_func m.compiled.Pipeline.prog
        m.compiled.Pipeline.prog.Ir.atomics.(ab).Ir.ab_func
    in
    let tg = { tfn = fn; ttgt = resolve_targets fn } in
    m.ab_roots.(ab) <- Some tg;
    tg

(* struct sizes are looked up by name in the program; memoize per site
   so repeated allocations skip the string search *)
let ssize_of m iid sname =
  let s = m.ssizes.(iid) in
  if s >= 0 then s
  else begin
    let s = Types.size (Ir.find_struct m.compiled.Pipeline.prog sname) in
    m.ssizes.(iid) <- s;
    s
  end

let pc_of m iid =
  let p = m.pcs.(iid) in
  if p <> min_int then p
  else begin
    let p = Layout.pc_of_iid m.compiled.Pipeline.layout iid in
    m.pcs.(iid) <- p;
    p
  end

(* an unused pool slot: [push_frame] sets every field before the frame
   is read, reusing [regs] while it is large enough *)
let new_frame (fn : Ir.func) tgt =
  let insts = fn.Ir.blocks.(0).Ir.insts in
  { func = fn; tgt; bi = 0; insts; ip = 0; regs = Array.make 8 0; ret_dst = -1 }

let grow_frames th =
  let old = th.frames in
  let n = Array.length old in
  let tpl = old.(0) in
  th.frames <-
    Array.init (2 * n) (fun i -> if i < n then old.(i) else new_frame tpl.func tpl.tgt)

let push_frame th (tg : tgt) args nargs ret_dst =
  if th.depth >= Array.length th.frames then grow_frames th;
  let fr = th.frames.(th.depth) in
  let fn = tg.tfn in
  let nregs = imax fn.Ir.nregs 1 in
  if Array.length fr.regs < nregs then
    fr.regs <- Array.make (imax nregs (2 * Array.length fr.regs)) 0
  else Array.fill fr.regs 0 nregs 0;
  Array.blit args 0 fr.regs 0 nargs;
  fr.func <- fn;
  fr.tgt <- tg.ttgt;
  fr.bi <- 0;
  fr.insts <- fn.Ir.blocks.(0).Ir.insts;
  fr.ip <- 0;
  fr.ret_dst <- ret_dst;
  th.depth <- th.depth + 1

(* evaluate call arguments into [th.argbuf] (growing it as needed) and
   return the count — replaces a list map that allocated per call *)
let rec eval_args th f i = function
  | [] -> i
  | a :: rest ->
    if i >= Array.length th.argbuf then begin
      let nu = Array.make (2 * Array.length th.argbuf) 0 in
      Array.blit th.argbuf 0 nu 0 i;
      th.argbuf <- nu
    end;
    th.argbuf.(i) <- ev f a;
    eval_args th f (i + 1) rest

(* ------------------------------------------------------------------ *)
(* scheduling                                                          *)

(* The scheduler runs the unfinished thread with the lowest clock,
   breaking ties toward the lowest tid. A tournament tree over the packed
   key [time * pw + tid] makes that choice (min key = min (time, tid)
   lexicographically) and re-settles only a changed leaf's path to the
   root: O(log cores) per step. Finished and parked threads sit at
   [max_int], so a [max_int] root means nothing is runnable. *)
let key_of m th =
  if th.finished || th.parked then max_int else (th.time * m.pw) + th.tid

(* Re-settle the tree above a changed leaf; stops as soon as a node's
   minimum is unaffected. *)
let rec settle (keys : int array) i =
  if i >= 1 then begin
    let v = imin keys.(2 * i) keys.((2 * i) + 1) in
    if v <> keys.(i) then begin
      keys.(i) <- v;
      settle keys (i / 2)
    end
  end

let rekey m th =
  m.keys.(m.pw + th.tid) <- key_of m th;
  settle m.keys ((m.pw + th.tid) / 2)

(* [th] was doomed by the step keyed [m.now_key] while it held a log of
   ops it ran ahead. The ops keyed after that step would not have run
   yet in step order, so they are taken back — clock, instruction
   counts, in-transaction cycles, step count — and the thread aborts at
   the first of them, on the cycle the one-step order would. The frames
   they wrote belong to the doomed attempt and die with it. *)
let rewind m th =
  let n = th.ra_len in
  let i = ref 0 in
  while !i < n && (th.ra_time.(!i) * m.pw) + th.tid < m.now_key do
    incr i
  done;
  let i = !i in
  if i < n then begin
    let tx = th.txs in
    let dt = th.time - th.ra_time.(i) and di = tx.tx_insts - th.ra_insts.(i) in
    th.time <- th.ra_time.(i);
    m.stats.Stats.tx_mode_cycles <- m.stats.Stats.tx_mode_cycles - dt;
    tx.tx_insts <- tx.tx_insts - di;
    m.stats.Stats.insts <- m.stats.Stats.insts - di;
    m.stats.Stats.tx_insts <- m.stats.Stats.tx_insts - di;
    m.steps <- m.steps - (n - i);
    rekey m th
  end;
  th.ra_len <- 0

(* The step keyed [m.now_key] released the global lock. Every recheck a
   parked waiter would have made before that step failed (the lock was
   held throughout), so it resumes at its first recheck keyed after the
   release, charged the skipped ones as one sum. *)
let wake_parked m =
  if m.parked > 0 then begin
    let c = m.cfg.Config.spin_recheck_cost in
    let r_time = m.now_key / m.pw and r_tid = m.now_key land (m.pw - 1) in
    for t = 0 to Array.length m.threads - 1 do
      let th = m.threads.(t) in
      if th.parked then begin
        (* at equal cycles the lower tid steps first *)
        let due = if th.tid > r_tid then r_time else r_time + 1 in
        let k = if th.time >= due then 0 else (due - th.time + c - 1) / c in
        charge m th (k * c);
        m.stats.Stats.lock_wait_cycles <- m.stats.Stats.lock_wait_cycles + (k * c);
        m.steps <- m.steps + k;
        th.parked <- false;
        rekey m th
      end
    done;
    m.parked <- 0
  end

(* ------------------------------------------------------------------ *)
(* advisory lock acquisition (the body of AcquireLockFor)              *)

(* the attempt now holds advisory lock [idx], taken for [line] *)
let lock_acquired m th ~idx ~line =
  let tx = th.txs in
  tx.tx_lock <- idx;
  tx.tx_held_lock <- true;
  m.stats.Stats.lock_acquires <- m.stats.Stats.lock_acquires + 1;
  let ab = Stats.ab m.stats tx.tx_ab in
  ab.Stats.ab_locks <- ab.Stats.ab_locks + 1;
  if m.evt then emit m th (Lock_acquired { tid = th.tid; lock = idx; line })

let request_lock m th ~addr =
  if th.tx_active then begin
    let tx = th.txs in
    if tx.tx_lock < 0 then begin
      m.stats.Stats.alps_lock_attempts <- m.stats.Stats.alps_lock_attempts + 1;
      let idx = Advisory_lock.index_for m.locks ~addr and line = line_of m addr in
      if m.evt then emit m th (Lock_attempt { tid = th.tid; lock = idx; line });
      let cost =
        mem_latency m th ~addr:(Advisory_lock.lock_addr m.locks idx) ~write:true
      in
      charge m th cost;
      if Advisory_lock.try_acquire m.locks ~core:th.tid ~idx then
        lock_acquired m th ~idx ~line
      else begin
        (* keep the stagger shallow: a bounded number of spinners may queue;
           the rest run speculatively (Figure 1 staggers transactions, it
           does not funnel every thread through one lock — and under
           requester-wins an unbounded convoy would trade all parallelism
           for the lock holder's safety) *)
        if Advisory_lock.waiters m.locks ~idx >= m.max_waiters then ()
        else begin
          Advisory_lock.add_waiter m.locks ~idx;
          th.wait <- Some (Lock_spin { idx; line; deadline = th.time + m.lock_timeout });
          if m.evt then emit m th (Lock_waiting { tid = th.tid; lock = idx })
        end
      end
    end
  end

let release_lock m th ~committed =
  if th.tx_active then begin
    let tx = th.txs in
    if tx.tx_lock >= 0 then begin
      let idx = tx.tx_lock in
      let contended = ref false in
      Advisory_lock.release m.locks ~core:th.tid ~idx ~contended;
      tx.tx_lock <- -1;
      charge m th (mem_latency m th ~addr:(Advisory_lock.lock_addr m.locks idx) ~write:true);
      if m.evt then emit m th (Lock_released { tid = th.tid; lock = idx; committed });
      if committed && not !contended then
        Policy.on_commit_uncontended_lock m.policy th.contexts.(tx.tx_ab)
    end
  end

(* ------------------------------------------------------------------ *)
(* transaction protocol                                                *)

let begin_attempt m th =
  if th.tx_active then begin
    let tx = th.txs in
    push_frame th (ab_root m tx.tx_ab) tx.tx_args tx.tx_nargs tx.tx_dst;
    tx.tx_start <- th.time;
    tx.tx_insts <- 0;
    tx.tx_held_lock <- false;
    charge m th 5;
    match tx.tx_tier with
    | Sw ->
      (* software-tier attempts skip the ALP machinery: the stagger is a
         hardware-contention device; the software tier already serializes
         through validation *)
      Stm.tx_begin (the_stm m) ~core:th.tid;
      if m.evt then
        emit m th
          (Stm_begin { tid = th.tid; ab = tx.tx_ab; attempt = tx.tx_attempt })
    | Hw ->
      (* a retry keeps its begin timestamp: under the Timestamp resolution
         policy an aborted transaction ages into priority *)
      Htm.tx_begin ~fresh:(tx.tx_attempt = 0) m.htm ~core:th.tid;
      let ctx = th.contexts.(tx.tx_ab) in
      Abcontext.on_tx_begin ctx;
      (* speculation probe: periodically run without the ALP to re-measure
         whether the serialization is still earning its keep *)
      if
        tx.tx_attempt = 0
        && Abcontext.probe_due ctx ~period:m.policy.Policy.probe_period
      then begin
        ctx.Abcontext.active_site <- Abcontext.no_site;
        tx.tx_is_probe <- true
      end;
      if m.evt then
        emit m th
          (Tx_begin
             {
               tid = th.tid;
               ab = tx.tx_ab;
               attempt = tx.tx_attempt;
               probe = tx.tx_is_probe;
             });
      (* AddrOnly and TxSched place their single pseudo-ALP at the very
         top of the atomic block; TxSched takes one lock per atomic block,
         through a synthetic line per block id *)
      let addr =
        match m.mode with
        | Mode.Addr_only -> ctx.Abcontext.block_addr
        | Mode.Tx_sched -> (tx.tx_ab + 1) * m.cfg.Config.words_per_line
        | Mode.Baseline | Mode.Staggered_sw | Mode.Staggered_hw -> 0
      in
      if addr <> 0 && ctx.Abcontext.active_site = Abcontext.entry_site then begin
        ignore (Abcontext.consume_active ctx ~site:Abcontext.entry_site);
        request_lock m th ~addr
      end
    | Irrevocable ->
      (* irrevocable attempts begin too: the trace needs a uniform
         begin/commit bracket per attempt, speculative or not *)
      if m.evt then
        emit m th
          (Tx_begin
             { tid = th.tid; ab = tx.tx_ab; attempt = tx.tx_attempt; probe = false })
  end

let start_atomic m th ~ab ~dst ~args ~nargs =
  let tx = th.txs in
  tx.tx_ab <- ab;
  tx.tx_dst <- dst;
  if Array.length tx.tx_args < nargs then tx.tx_args <- Array.make (max 8 nargs) 0;
  Array.blit args 0 tx.tx_args 0 nargs;
  tx.tx_nargs <- nargs;
  tx.tx_base_depth <- th.depth;
  tx.tx_attempt <- 0;
  tx.tx_start <- th.time;
  tx.tx_insts <- 0;
  tx.tx_lock <- -1;
  tx.tx_held_lock <- false;
  tx.tx_is_probe <- false;
  tx.tx_tier <- Hw;
  tx.tx_stm_attempts <- 0;
  th.tx_active <- true;
  begin_attempt m th

let pop_to_base th (tx : txstate) =
  if th.depth > tx.tx_base_depth then th.depth <- tx.tx_base_depth

(* the attempt at the root of the atomic call committed, on any tier *)
let commit m th ~rset ~wset ~vcycles retval =
  let tx = th.txs in
  th.tx_active <- false;
  if tx.tx_dst >= 0 && th.depth > 0 then
    th.frames.(th.depth - 1).regs.(tx.tx_dst) <- retval;
  let irrevocable = match tx.tx_tier with Irrevocable -> true | Hw | Sw -> false in
  (match tx.tx_tier with
  | Sw ->
    (* software attempts never arm or probe, so leave no ALP history *)
    m.stats.Stats.stm_commits <- m.stats.Stats.stm_commits + 1
  | Hw | Irrevocable ->
    (* decision (1) is about the FREQUENCY of contention aborts:
       conflict-free commits while no ALP is armed push empty records
       through the history, so arming demands aborts dense in recent
       transactions, not merely accumulated over a lifetime. A commit of
       an armed transaction that did not end up holding its lock (a
       probe, or an address mismatch) decays the armed evidence the same
       way an uncontended lock does. *)
    if (match m.mode with Mode.Baseline -> false | _ -> true) then begin
      let ctx = th.contexts.(tx.tx_ab) in
      if ctx.Abcontext.armed_site = Abcontext.no_site then Abcontext.append ctx None
      else if tx.tx_is_probe then Policy.on_probe_commit ctx
      else if not tx.tx_held_lock then Policy.on_commit_uncontended_lock m.policy ctx
    end);
  m.stats.Stats.commits <- m.stats.Stats.commits + 1;
  m.stats.Stats.useful_cycles <- m.stats.Stats.useful_cycles + (th.time - tx.tx_start);
  m.stats.Stats.committed_tx_insts <- m.stats.Stats.committed_tx_insts + tx.tx_insts;
  let ab = Stats.ab m.stats tx.tx_ab in
  ab.Stats.ab_commits <- ab.Stats.ab_commits + 1;
  if irrevocable then ab.Stats.ab_irrevocable <- ab.Stats.ab_irrevocable + 1;
  if m.evt then begin
    let cycles = th.time - tx.tx_start in
    emit m th
      (match tx.tx_tier with
      | Sw -> Stm_commit { tid = th.tid; ab = tx.tx_ab; cycles; vcycles; rset; wset }
      | Hw | Irrevocable ->
        Tx_commit
          {
            tid = th.tid;
            ab = tx.tx_ab;
            cycles;
            irrevocable;
            rset;
            wset;
            probe = tx.tx_is_probe;
          })
  end;
  if th.cur_req >= 0 then begin
    if m.evt then
      emit m th (Req_done { tid = th.tid; req = th.cur_req; ab = tx.tx_ab });
    th.cur_req <- -1
  end

(* identify the anchor a conflict abort on [line] traces back to, per the
   configured conflicting-PC scheme, and score it against the full-PC
   oracle *)
let identify_anchor m th ~ab ~line ~conf_pc ~conf_pc_full =
  let table = Pipeline.table_for m.compiled ~ab in
  let runtime_anchor =
    match m.mode with
    | Mode.Staggered_hw -> Policy.resolve_anchor table ~conf_pc
    | Mode.Tx_sched -> None
    | Mode.Staggered_sw -> (
      match Softcpc.lookup th.softcpc ~line with
      | None -> None
      | Some site -> (
        match Unified.entry_of_site table site with
        | None -> None
        | Some e -> Unified.anchor_of table e))
    | Mode.Baseline | Mode.Addr_only -> None
  in
  (* oracle: exact full-width PC lookup.  Only the ALP modes score
     anchor accuracy, so skip the (side-effect-free) lookup elsewhere *)
  (if Mode.uses_alps m.mode then
     let oracle =
       match conf_pc_full with
       | None -> None
       | Some pc -> (
         match Unified.search_by_pc table pc with
         | Some e -> Unified.anchor_of table e
         | None -> None)
     in
     match oracle with
     | Some oracle ->
       m.stats.Stats.accuracy_total <- m.stats.Stats.accuracy_total + 1;
       (match runtime_anchor with
       | Some ra when ra.Unified.ue_iid = oracle.Unified.ue_iid ->
         m.stats.Stats.accuracy_hits <- m.stats.Stats.accuracy_hits + 1
       | _ -> ())
     | None -> ());
  runtime_anchor

(* charge an aborted attempt of any tier and book it; returns the cycles
   it wasted *)
let book_abort m th =
  let tx = th.txs in
  charge m th (m.cfg.Config.abort_cost + m.cfg.Config.handler_cost);
  m.stats.Stats.aborts <- m.stats.Stats.aborts + 1;
  let wasted = th.time - tx.tx_start in
  m.stats.Stats.wasted_cycles <- m.stats.Stats.wasted_cycles + wasted;
  let ab = Stats.ab m.stats tx.tx_ab in
  ab.Stats.ab_aborts <- ab.Stats.ab_aborts + 1;
  wasted

(* polite backoff: mean delay proportional to the tier's retry count *)
let polite_delay m th retries =
  let base = m.cfg.Config.backoff_base * retries in
  let jitter = Stx_util.Rng.int th.rng (imax 1 base) in
  (base / 2) + jitter

(* back off for [delay] cycles, then begin the next attempt *)
let retry_after m th delay =
  if m.evt then emit m th (Backoff_start { tid = th.tid });
  charge m th delay;
  m.stats.Stats.backoff_cycles <- m.stats.Stats.backoff_cycles + delay;
  if m.evt then emit m th (Backoff_end { tid = th.tid });
  begin_attempt m th

let handle_abort m th =
  (match th.wait with
  | Some (Lock_spin { idx; _ }) ->
    Advisory_lock.remove_waiter m.locks ~idx;
    th.wait <- None
  | _ -> ());
  if th.tx_active then begin
    let tx = th.txs in
    let reason = Htm.tx_cleanup m.htm ~core:th.tid in
    (* set sizes at doom time: the live sets were reset when the
       transaction was doomed, possibly long before this handler ran *)
    let rset, wset = Htm.last_set_sizes m.htm ~core:th.tid in
    release_lock m th ~committed:false;
    let wasted = book_abort m th in
    let ctx = th.contexts.(tx.tx_ab) in
    let conf_line = ref (-1) in
    (match reason with
    | Htm.Conflict { conf_addr; conf_pc; conf_pc_full; _ } ->
      m.stats.Stats.conflict_aborts <- m.stats.Stats.conflict_aborts + 1;
      let line = line_of m conf_addr in
      conf_line := line;
      Stats.note_conflict m.stats ~conf_line:line ~conf_pc;
      let runtime_anchor =
        identify_anchor m th ~ab:tx.tx_ab ~line ~conf_pc ~conf_pc_full
      in
      let skip =
        m.policy.Policy.skip_read_only
        && Pipeline.is_read_only m.compiled ~ab:tx.tx_ab
      in
      (match m.mode with
      | _ when skip -> ()
      | Mode.Baseline -> ()
      | Mode.Addr_only ->
        Policy.activate_addr_only m.policy ctx ~conf_addr ~line
      | Mode.Tx_sched -> Policy.activate_tx_sched m.policy ctx ~line
      | Mode.Staggered_hw | Mode.Staggered_sw -> (
        match
          Policy.activate m.policy ctx ~anchor:runtime_anchor ~conf_addr ~line
            ~retries:tx.tx_attempt
        with
        | Policy.Precise -> m.stats.Stats.precise <- m.stats.Stats.precise + 1
        | Policy.Coarse -> m.stats.Stats.coarse <- m.stats.Stats.coarse + 1
        | Policy.Promoted -> m.stats.Stats.promoted <- m.stats.Stats.promoted + 1
        | Policy.Training -> m.stats.Stats.training <- m.stats.Stats.training + 1))
    | Htm.Lock_subscription ->
      m.stats.Stats.lock_sub_aborts <- m.stats.Stats.lock_sub_aborts + 1
    | Htm.Capacity ->
      (* not a contention signal: no conflict tallies, no ALP activation *)
      m.stats.Stats.capacity_aborts <- m.stats.Stats.capacity_aborts + 1
    | Htm.Explicit ->
      m.stats.Stats.explicit_aborts <- m.stats.Stats.explicit_aborts + 1
    | Htm.Stm_conflict { conf_addr; _ } ->
      (* cross-tier friction: the software commit carries no PC tag, so
         there is no anchor to activate — tally the line only *)
      m.stats.Stats.stm_conflict_aborts <- m.stats.Stats.stm_conflict_aborts + 1;
      let line = line_of m conf_addr in
      conf_line := line;
      Stats.note_conflict m.stats ~conf_line:line ~conf_pc:None);
    if m.evt then begin
      let kind, abort_conf_pc, aggressor =
        match reason with
        | Htm.Conflict { conf_pc; aggressor; _ } -> (Conflict, conf_pc, Some aggressor)
        | Htm.Lock_subscription -> (Lock_subscription, None, None)
        | Htm.Capacity -> (Capacity, None, None)
        | Htm.Explicit -> (Explicit, None, None)
        | Htm.Stm_conflict { aggressor; _ } -> (Stm_conflict, None, Some aggressor)
      in
      emit m th
        (Tx_abort
           {
             tid = th.tid;
             ab = tx.tx_ab;
             kind;
             conf_line = (if !conf_line < 0 then None else Some !conf_line);
             conf_pc = abort_conf_pc;
             aggressor;
             cycles = wasted;
             rset;
             wset;
             probe = tx.tx_is_probe;
           })
    end;
    ctx.Abcontext.probe_streak <- 0;
    tx.tx_is_probe <- false;
    pop_to_base th tx;
    tx.tx_attempt <- tx.tx_attempt + 1;
    let give_up =
      match reason with
      (* a capacity overflow is a property of the footprint, not of the
         interleaving: retrying cannot shrink it, so go irrevocable now *)
      | Htm.Capacity -> true
      | _ -> tx.tx_attempt >= m.retry_budget
    in
    if give_up then begin
      match m.stm with
      | Some _ ->
        (* the hybrid fallback interposes the software tier between the
           hardware retries and the irrevocable lock: capacity overflows
           in particular fit there, since the software tier has no
           footprint budget *)
        tx.tx_tier <- Sw;
        tx.tx_stm_attempts <- 0;
        begin_attempt m th
      | None ->
        (* fall back to irrevocable execution under the global lock *)
        th.wait <- Some Global_spin
    end
    else
      retry_after m th
        (match m.htm_policy.Stx_policy.fallback with
        | Stx_policy.Fallback.Polite _ | Stx_policy.Fallback.Stm_tier _ ->
          polite_delay m th tx.tx_attempt
        | Stx_policy.Fallback.Backoff { base; max_exp; _ } ->
          (* exponential randomized backoff with a capped exponent, drawn
             from the dedicated per-thread stream *)
          let e = imin tx.tx_attempt max_exp in
          Stx_util.Rng.int th.backoff_rng (imax 1 (base * (1 lsl e))))
  end

(* a software-tier attempt died (failed validation, deferred to hardware
   ownership, the global lock, or an explicit abort): account it, then
   retry on the software tier or — once the software budget is spent —
   queue for the irrevocable lock, which now only backstops validation
   livelock *)
let handle_stm_abort m th ~vcycles =
  if th.tx_active then begin
    let tx = th.txs in
    let stm = the_stm m in
    let kind = Stm.tx_cleanup stm ~core:th.tid in
    let rset, wset = Stm.last_set_sizes stm ~core:th.tid in
    let wasted = book_abort m th in
    m.stats.Stats.stm_aborts <- m.stats.Stats.stm_aborts + 1;
    let kind =
      match kind with
      | Stm.Validation ->
        m.stats.Stats.stm_validation_aborts <- m.stats.Stats.stm_validation_aborts + 1;
        Stm_validation
      | Stm.Hw_owned ->
        m.stats.Stats.stm_hw_owned_aborts <- m.stats.Stats.stm_hw_owned_aborts + 1;
        Stm_hw_owned
      | Stm.Locksub ->
        m.stats.Stats.stm_locksub_aborts <- m.stats.Stats.stm_locksub_aborts + 1;
        Stm_locksub
      | Stm.Explicit -> Stm_explicit
    in
    if m.evt then
      emit m th
        (Stm_abort
           { tid = th.tid; ab = tx.tx_ab; kind; cycles = wasted; vcycles; rset; wset });
    pop_to_base th tx;
    tx.tx_attempt <- tx.tx_attempt + 1;
    tx.tx_stm_attempts <- tx.tx_stm_attempts + 1;
    if tx.tx_stm_attempts >= m.stm_retries then th.wait <- Some Global_spin
    else retry_after m th (polite_delay m th tx.tx_stm_attempts)
  end

(* ------------------------------------------------------------------ *)
(* instruction execution                                               *)

let exec_alp m th (a : Ir.alp) =
  charge m th m.cfg.Config.alp_inactive_cost;
  if speculative th && Mode.uses_alps m.mode then begin
    let tx = th.txs in
    m.stats.Stats.alps_executed <- m.stats.Stats.alps_executed + 1;
    let f = frame_of th in
    let addr = f.regs.(a.Ir.alp_addr) in
    if addr >= wpl m then begin
      (* software conflicting-PC tracking: one nt probe, plus one nt store
         when the line was absent from the map *)
      if (match m.mode with Mode.Staggered_sw -> true | _ -> false) then begin
        charge m th (2 * m.cfg.Config.l1_latency);
        if Softcpc.note th.softcpc ~line:(line_of m addr) ~site:a.Ir.alp_site then
          charge m th m.cfg.Config.l1_latency
      end;
      let ctx = th.contexts.(tx.tx_ab) in
      let fired =
        ctx.Abcontext.active_site = a.Ir.alp_site
        && Abcontext.address_matched ctx ~words_per_line:(wpl m) ~addr
      in
      if m.evt then
        emit m th
          (Alp_executed { tid = th.tid; ab = tx.tx_ab; site = a.Ir.alp_site; fired });
      if fired then begin
        ignore (Abcontext.consume_active ctx ~site:a.Ir.alp_site);
        request_lock m th ~addr
      end
    end
    else if
      (* a null-address ALP still executed: the trace must tally with
         stats.alps_executed, so it gets an (unfired) event too *)
      m.evt
    then
      emit m th
        (Alp_executed
           { tid = th.tid; ab = tx.tx_ab; site = a.Ir.alp_site; fired = false })
  end

let exec_intr m th f dst intr args =
  match (intr, args) with
  | Ir.Rng, [ bound ] ->
    let b = ev f bound in
    if b <= 0 then trap "rng with nonpositive bound %d" b;
    charge m th 5;
    (match dst with
    | Some d -> f.regs.(d) <- Stx_util.Rng.int th.rng b
    | None -> ())
  | Ir.Thread_id, [] ->
    charge m th 1;
    (match dst with Some d -> f.regs.(d) <- th.tid | None -> ())
  | Ir.Work, [ n ] ->
    let n = ev f n in
    charge m th (imax 0 n)
  | Ir.Print, [ _ ] -> charge m th 1
  | Ir.Abort_tx, [] ->
    charge m th 1;
    if speculative th then begin
      Htm.tx_self_abort m.htm ~core:th.tid;
      handle_abort m th
    end
    else if stm_active th then begin
      let stm = the_stm m in
      (match Stm.status stm ~core:th.tid with
      | Stm.Active -> Stm.tx_self_abort stm ~core:th.tid
      | Stm.Idle | Stm.Doomed _ -> ());
      handle_stm_abort m th ~vcycles:0
    end
  | _ -> trap "bad intrinsic arity"

let do_return m th retval =
  if th.depth = 0 then trap "return with empty stack";
  let frame = th.frames.(th.depth - 1) in
  th.depth <- th.depth - 1;
  charge m th 2;
  let at_tx_root = th.tx_active && th.depth = th.txs.tx_base_depth in
  if at_tx_root then begin
    match th.txs.tx_tier with
    | Irrevocable ->
      Htm.release_global_lock m.htm;
      wake_parked m;
      (* irrevocable execution is non-speculative: no read/write sets *)
      commit m th ~rset:0 ~wset:0 ~vcycles:0 retval
    | Sw ->
      let stm = the_stm m in
      charge m th m.cfg.Config.commit_cost;
      (* version-word traffic the TL2 commit would execute: one probe
         per read line to re-validate, one RMW per write stripe to lock
         and stamp, then the publication stores themselves — charged
         before the (atomic) protocol step so the latencies land inside
         the attempt *)
      let vc = ref 0 in
      Stm.iter_read_lines stm ~core:th.tid (fun line ->
          vc := !vc + mem_latency m th ~addr:(Stm.version_addr stm ~line) ~write:false);
      Stm.iter_write_lines stm ~core:th.tid (fun line ->
          vc := !vc + mem_latency m th ~addr:(Stm.version_addr stm ~line) ~write:true);
      let vcycles = !vc in
      charge m th vcycles;
      m.stats.Stats.stm_validation_cycles <-
        m.stats.Stats.stm_validation_cycles + vcycles;
      Stm.iter_write_addrs stm ~core:th.tid (fun addr ->
          charge m th (mem_latency m th ~addr ~write:true));
      if Stm.tx_commit stm ~core:th.tid then begin
        let rset, wset = Stm.last_set_sizes stm ~core:th.tid in
        commit m th ~rset ~wset ~vcycles retval
      end
      else handle_stm_abort m th ~vcycles
    | Hw ->
      charge m th m.cfg.Config.commit_cost;
      if Htm.tx_commit m.htm ~core:th.tid then begin
        let rset, wset = Htm.last_set_sizes m.htm ~core:th.tid in
        release_lock m th ~committed:true;
        commit m th ~rset ~wset ~vcycles:0 retval
      end
      else handle_abort m th
  end
  else begin
    if frame.ret_dst >= 0 && th.depth > 0 then
      th.frames.(th.depth - 1).regs.(frame.ret_dst) <- retval;
    (* under an injector the empty stack is the "ready for the next
       request" state, handled by [step]; without one it is the end of
       the thread's program *)
    if th.depth = 0 && (match m.injector with None -> true | Some _ -> false) then
      th.finished <- true
  end

let binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then trap "division by zero" else a / b
  | Ir.Rem -> if b = 0 then trap "remainder by zero" else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl (b land 62)
  | Ir.Shr -> a asr (b land 62)
  | Ir.Eq -> if a = b then 1 else 0
  | Ir.Ne -> if a <> b then 1 else 0
  | Ir.Lt -> if a < b then 1 else 0
  | Ir.Le -> if a <= b then 1 else 0
  | Ir.Gt -> if a > b then 1 else 0
  | Ir.Ge -> if a >= b then 1 else 0

(* consume the instruction at [f.ip] *)
let next_inst m th f =
  f.ip <- f.ip + 1;
  m.stats.Stats.insts <- m.stats.Stats.insts + 1;
  if th.tx_active then begin
    th.txs.tx_insts <- th.txs.tx_insts + 1;
    m.stats.Stats.tx_insts <- m.stats.Stats.tx_insts + 1
  end

(* Execute the thread's next op — an instruction, or its block's
   terminator — and return true. With [local_only], only a thread-local
   op runs; anything else returns false, leaving the thread untouched.
   Thread-local ops read and write the thread's own registers, frames
   and clock and nothing else, so no other thread can observe when they
   run. Not thread-local: memory, allocation, the RNG (its draws outlive
   an abort), ALPs, atomic calls, print and the explicit abort, a
   division by zero (which traps, unless a doom lands first), and a
   return that commits a transaction or ends the thread. *)
let exec_op m th ~local_only =
  let f = frame_of th in
  let insts = f.insts in
  if f.ip < Array.length insts then begin
    let inst = insts.(f.ip) in
    match inst.Ir.op with
    | Ir.Mov (d, v) ->
      next_inst m th f;
      charge m th 1;
      f.regs.(d) <- ev f v;
      true
    | Ir.Bin (op, d, a, b) ->
      let b = ev f b in
      if local_only && b = 0 && (match op with Ir.Div | Ir.Rem -> true | _ -> false)
      then false
      else begin
        next_inst m th f;
        charge m th 1;
        f.regs.(d) <- binop op (ev f a) b;
        true
      end
    | Ir.Gep (d, b, _, fi) ->
      next_inst m th f;
      charge m th 1;
      f.regs.(d) <- f.regs.(b) + fi;
      true
    | Ir.Idx (d, b, esize, i) ->
      next_inst m th f;
      charge m th 1;
      f.regs.(d) <- f.regs.(b) + (esize * ev f i);
      true
    | Ir.Call (dst, g, args) ->
      next_inst m th f;
      charge m th 2;
      let n = eval_args th f 0 args in
      push_frame th (callee_of m inst.Ir.iid g) th.argbuf n
        (match dst with Some d -> d | None -> -1);
      true
    | Ir.Intr (dst, (Ir.Work as intr), ([ _ ] as args))
    | Ir.Intr (dst, (Ir.Thread_id as intr), ([] as args)) ->
      next_inst m th f;
      exec_intr m th f dst intr args;
      true
    | Ir.Load _ | Ir.Store _ | Ir.Alloc _ | Ir.Alloc_arr _ | Ir.Atomic_call _
    | Ir.Intr _ | Ir.Alp _
      when local_only ->
      false
    | Ir.Load (d, p) ->
      next_inst m th f;
      let addr = f.regs.(p) in
      check_addr m addr;
      charge m th (mem_latency m th ~addr ~write:false);
      let v =
        if speculative th then
          Htm.tx_load m.htm ~core:th.tid ~addr ~pc:(pc_of m inst.Ir.iid)
        else if stm_active th then begin
          (* every software read also probes the line's version word *)
          let stm = the_stm m in
          charge m th
            (mem_latency m th
               ~addr:(Stm.version_addr stm ~line:(line_of m addr))
               ~write:false);
          Stm.tx_load stm ~core:th.tid ~addr
        end
        else Htm.nt_load m.htm ~addr
      in
      f.regs.(d) <- v;
      true
    | Ir.Store (p, v) ->
      next_inst m th f;
      let addr = f.regs.(p) in
      check_addr m addr;
      charge m th (mem_latency m th ~addr ~write:true);
      let value = ev f v in
      if speculative th then
        Htm.tx_store m.htm ~core:th.tid ~addr ~value ~pc:(pc_of m inst.Ir.iid)
      else if stm_active th then
        Stm.tx_store (the_stm m) ~core:th.tid ~addr ~value
      else Htm.nt_store m.htm ~core:th.tid ~addr ~value;
      true
    | Ir.Alloc (d, sname) ->
      next_inst m th f;
      charge m th 20;
      f.regs.(d) <-
        Alloc.alloc m.allocator ~thread:th.tid (ssize_of m inst.Ir.iid sname);
      true
    | Ir.Alloc_arr (d, sname, n) ->
      next_inst m th f;
      charge m th 20;
      let sz = ssize_of m inst.Ir.iid sname in
      let n = ev f n in
      if n <= 0 then trap "alloc_arr with nonpositive count %d" n;
      f.regs.(d) <- Alloc.alloc m.allocator ~thread:th.tid (n * sz);
      true
    | Ir.Atomic_call (dst, ab, args) ->
      next_inst m th f;
      if in_tx th then trap "nested atomic call";
      let n = eval_args th f 0 args in
      start_atomic m th ~ab
        ~dst:(match dst with Some d -> d | None -> -1)
        ~args:th.argbuf ~nargs:n;
      true
    | Ir.Intr (dst, intr, args) ->
      next_inst m th f;
      exec_intr m th f dst intr args;
      true
    | Ir.Alp a ->
      next_inst m th f;
      exec_alp m th a;
      true
  end
  else
    match f.func.Ir.blocks.(f.bi).Ir.term with
    | Ir.Jmp _ ->
      charge m th 1;
      f.bi <- f.tgt.(2 * f.bi);
      f.insts <- f.func.Ir.blocks.(f.bi).Ir.insts;
      f.ip <- 0;
      true
    | Ir.Br (c, _, _) ->
      charge m th 1;
      f.bi <- f.tgt.((2 * f.bi) + if ev f c <> 0 then 0 else 1);
      f.insts <- f.func.Ir.blocks.(f.bi).Ir.insts;
      f.ip <- 0;
      true
    | Ir.Ret _
      when local_only
           && (th.depth = 1 || (th.tx_active && th.depth - 1 = th.txs.tx_base_depth)) ->
      false
    | Ir.Ret v ->
      charge m th 1;
      do_return m th (match v with Some v -> ev f v | None -> 0);
      true

(* ------------------------------------------------------------------ *)
(* the per-thread step                                                 *)

let spin_wait m th =
  charge m th m.cfg.Config.spin_recheck_cost;
  m.stats.Stats.lock_wait_cycles <-
    m.stats.Stats.lock_wait_cycles + m.cfg.Config.spin_recheck_cost

let htm_doomed m th =
  speculative th
  && match Htm.status m.htm ~core:th.tid with Htm.Doomed _ -> true | _ -> false

let step m th =
  m.steps <- m.steps + 1;
  if m.steps > m.max_steps then trap "simulation exceeded %d steps" m.max_steps;
  (* a doomed speculative transaction aborts before doing anything else *)
  if htm_doomed m th then handle_abort m th
  else if
    stm_active th
    && (match Stm.status (the_stm m) ~core:th.tid with
       | Stm.Doomed _ -> true
       | _ -> false)
  then handle_stm_abort m th ~vcycles:0
  else
    match th.wait with
    | Some (Lock_spin { idx; line; deadline }) ->
      spin_wait m th;
      if Advisory_lock.try_acquire m.locks ~core:th.tid ~idx then begin
        Advisory_lock.remove_waiter m.locks ~idx;
        th.wait <- None;
        lock_acquired m th ~idx ~line
      end
      else if th.time >= deadline then begin
        Advisory_lock.remove_waiter m.locks ~idx;
        m.stats.Stats.lock_timeouts <- m.stats.Stats.lock_timeouts + 1;
        th.wait <- None;
        if m.evt then emit m th (Lock_timeout { tid = th.tid; lock = idx })
      end
    | Some Global_spin ->
      spin_wait m th;
      if Htm.acquire_global_lock m.htm ~core:th.tid then begin
        (* whichever tier gave up, the next attempt runs irrevocably *)
        let tx = th.txs in
        tx.tx_tier <- Irrevocable;
        m.stats.Stats.irrevocable_entries <- m.stats.Stats.irrevocable_entries + 1;
        th.wait <- None;
        if m.evt then emit m th (Tx_irrevocable { tid = th.tid; ab = tx.tx_ab });
        begin_attempt m th
      end
      else if m.cfg.Config.spin_recheck_cost > 0 then begin
        (* the lock is held, and every recheck fails until its holder
           releases it: sleep until then ([wake_parked]) *)
        th.parked <- true;
        m.parked <- m.parked + 1
      end
    | None ->
      if th.depth = 0 then begin
        (* only reachable under an injector: the thread has no program of
           its own and asks the request source for its next work item *)
        match m.injector with
        | None -> trap "thread %d stepped with no frame" th.tid
        | Some inject -> (
          match inject ~tid:th.tid ~now:th.time with
          | Inject { req; ab; args } ->
            if ab < 0 || ab >= Array.length m.compiled.Pipeline.prog.Ir.atomics
            then trap "injected request %d names unknown atomic block %d" req ab;
            th.cur_req <- req;
            if m.evt then emit m th (Req_dispatch { tid = th.tid; req; ab });
            charge m th 2;
            start_atomic m th ~ab ~dst:(-1) ~args ~nargs:(Array.length args)
          | Idle_until t ->
            (* idle until the next arrival; always make progress so an
               ill-behaved injector cannot stall the event loop *)
            th.time <- imax t (th.time + 1)
          | Drained -> th.finished <- true)
      end
      else ignore (exec_op m th ~local_only:false)

(* entries in a thread's run-ahead log *)
let ra_cap = 64

(* After a scheduled step the thread runs on through its thread-local
   ops at once, logging each op's start cycle (the key it would have
   been scheduled at) for [rewind]; the tree then holds it at its next
   shared step. Software-tier attempts (whose dooms [rewind] does not
   see), advisory-lock spins and already-doomed attempts stay on the
   one-step path. *)
let run_ahead m th =
  let n = ref 0 in
  if
    th.depth > 0
    && (match th.wait with None -> true | Some _ -> false)
    && (not (stm_active th))
    && not (htm_doomed m th)
  then
    while
      !n < ra_cap
      && m.steps < m.max_steps
      && begin
           th.ra_time.(!n) <- th.time;
           th.ra_insts.(!n) <- th.txs.tx_insts;
           exec_op m th ~local_only:true
         end
    do
      incr n;
      m.steps <- m.steps + 1
    done;
  th.ra_len <- !n

(* ------------------------------------------------------------------ *)
(* the run loop                                                        *)

(* entries in the advisory lock table that ALPs hash addresses into *)
let advisory_locks = 256

let run ?(seed = 1) ?(policy = Policy.default_params)
    ?(htm_policy = Stx_policy.default) ?(lock_timeout = 100_000) ?(max_waiters = 2)
    ?(max_steps = 400_000_000) ?on_event ?injector ~cfg ~mode spec =
  let evt, on_event =
    match on_event with
    | Some f -> (true, f)
    | None -> (false, fun ~time:_ _ -> ())
  in
  let memory = Memory.create () in
  let allocator = Alloc.create ~words_per_line:cfg.Config.words_per_line memory in
  let htm = Htm.create ~policy:htm_policy cfg memory allocator in
  let locks = Advisory_lock.create ~count:advisory_locks htm allocator in
  (* the software tier (and its version-word table in simulated memory)
     exists only under the hybrid fallback, so every other bundle keeps
     the seed's exact allocation layout *)
  let stm, stm_retries =
    match htm_policy.Stx_policy.fallback with
    | Stx_policy.Fallback.Stm_tier { stm_retries; _ } ->
      let s = Stm.create htm memory allocator in
      Htm.set_on_publish htm (Some (fun ~line -> Stm.note_published s ~line));
      (Some s, stm_retries)
    | Stx_policy.Fallback.Polite _ | Stx_policy.Fallback.Backoff _ -> (None, 0)
  in
  let hier = Hierarchy.create cfg in
  let master = Stx_util.Rng.create seed in
  let env = { memory; alloc = allocator; setup_rng = Stx_util.Rng.split master } in
  let nthreads = cfg.Config.cores in
  let args = spec.thread_args env ~threads:nthreads in
  if Array.length args <> nthreads then
    invalid_arg "Machine.run: thread_args must cover every thread";
  let stats = Stats.create ~threads:nthreads in
  let n_abs = Array.length spec.compiled.Pipeline.prog.Ir.atomics in
  let backoff_seed =
    match htm_policy.Stx_policy.fallback with
    | Stx_policy.Fallback.Backoff { seed = s; _ } -> s
    | Stx_policy.Fallback.Polite _ | Stx_policy.Fallback.Stm_tier _ -> 0
  in
  let main_fn = Ir.find_func spec.compiled.Pipeline.prog spec.thread_main in
  let main_tgt = { tfn = main_fn; ttgt = resolve_targets main_fn } in
  let mk_thread tid =
    {
      tid;
      time = 0;
      frames = Array.init 8 (fun _ -> new_frame main_fn main_tgt.ttgt);
      depth = 0;
      argbuf = Array.make 16 0;
      finished = false;
      wait = None;
      txs =
        {
          tx_ab = 0;
          tx_dst = -1;
          tx_args = Array.make 8 0;
          tx_nargs = 0;
          tx_base_depth = 0;
          tx_attempt = 0;
          tx_start = 0;
          tx_insts = 0;
          tx_lock = -1;
          tx_held_lock = false;
          tx_is_probe = false;
          tx_tier = Hw;
          tx_stm_attempts = 0;
        };
      tx_active = false;
      rng = Stx_util.Rng.split master;
      backoff_rng = Stx_util.Rng.create (backoff_seed + ((tid + 1) * 65599));
      cur_req = -1;
      contexts =
        Array.init n_abs (fun ab ->
            Abcontext.create ~ab (Pipeline.table_for spec.compiled ~ab));
      softcpc = Softcpc.create ();
      parked = false;
      ra_time = Array.make ra_cap 0;
      ra_insts = Array.make ra_cap 0;
      ra_len = 0;
    }
  in
  let threads = Array.init nthreads mk_thread in
  let pw = ref 1 in
  while !pw < nthreads do
    pw := !pw * 2
  done;
  let pw = !pw in
  let n_iids = max 1 spec.compiled.Pipeline.prog.Ir.next_iid in
  let m =
    {
      cfg;
      mode;
      policy;
      htm_policy;
      retry_budget = Stx_policy.Fallback.retry_budget htm_policy.Stx_policy.fallback;
      lock_timeout;
      max_waiters;
      compiled = spec.compiled;
      memory;
      hier;
      htm;
      stm;
      stm_retries;
      locks;
      threads;
      stats;
      evt;
      on_event;
      injector;
      callee = Array.make n_iids None;
      ab_roots = Array.make (max 1 n_abs) None;
      pcs = Array.make n_iids min_int;
      ssizes = Array.make n_iids (-1);
      line_shift = shift_of_pow2 cfg.Config.words_per_line;
      steps = 0;
      max_steps;
      allocator;
      pw;
      keys = Array.make (2 * pw) max_int;
      now_key = 0;
      parked = 0;
    }
  in
  Array.iter
    (fun th -> push_frame th main_tgt args.(th.tid) (Array.length args.(th.tid)) (-1))
    threads;
  Htm.set_on_doom htm (Some (fun victim -> rewind m threads.(victim)));
  Array.iter (fun th -> m.keys.(pw + th.tid) <- key_of m th) threads;
  for i = pw - 1 downto 1 do
    m.keys.(i) <- imin m.keys.(2 * i) m.keys.((2 * i) + 1)
  done;
  (* One scheduled step per shared-state op: the minimum (cycle, core)
     executes one step and then runs ahead through its thread-local ops
     ([run_ahead]); a doom rewinds a victim that ran past the dooming
     step ([rewind]), and global-lock waiters sleep until the release
     ([wake_parked]). Shared steps, and every event, keep the order of
     one step per op. *)
  let rec loop () =
    let root = m.keys.(1) in
    if root <> max_int then begin
      let th = threads.(root land (pw - 1)) in
      m.now_key <- root;
      step m th;
      run_ahead m th;
      rekey m th;
      loop ()
    end
  in
  loop ();
  (* parked waiters outliving every other thread would spin forever on a
     lock nobody releases *)
  if m.parked > 0 then
    trap "simulation exceeded %d steps: %d threads wait on a global lock never released"
      max_steps m.parked;
  (* end-of-run invariants: every thread wound down cleanly and every
     advisory lock was released *)
  Array.iter
    (fun th ->
      if th.tx_active || th.depth > 0 then
        trap "thread %d finished with live state" th.tid)
    threads;
  for idx = 0 to Advisory_lock.count m.locks - 1 do
    match Advisory_lock.holder m.locks ~idx with
    | Some core -> trap "advisory lock %d still held by core %d at end of run" idx core
    | None -> ()
  done;
  if Htm.global_lock_held htm then trap "global lock still held at end of run";
  (match stm with
  | Some s ->
    Array.iteri
      (fun core th ->
        ignore th;
        match Stm.status s ~core with
        | Stm.Idle -> ()
        | Stm.Active | Stm.Doomed _ ->
          trap "software transaction still live on core %d at end of run" core)
      threads
  | None -> ());
  Array.iter (fun th -> stats.Stats.total_cycles <- max stats.Stats.total_cycles th.time) threads;
  Array.iter
    (fun th -> stats.Stats.thread_cycles <- stats.Stats.thread_cycles + th.time)
    threads;
  (* file this run's totals under its own policy bundle so merged sweeps
     across policies can be ranked per bundle *)
  let pol = Stats.policy_tally stats (Stx_policy.label htm_policy) in
  pol.Stats.p_commits <- pol.Stats.p_commits + stats.Stats.commits;
  pol.Stats.p_aborts <- pol.Stats.p_aborts + stats.Stats.aborts;
  pol.Stats.p_capacity <- pol.Stats.p_capacity + stats.Stats.capacity_aborts;
  pol.Stats.p_irrevocable <-
    pol.Stats.p_irrevocable + stats.Stats.irrevocable_entries;
  (* the run's internal index structures (cache hierarchy, HTM
     reader/writer rows) never escape; recycle their arrays so repeated
     runs stop churning the major heap *)
  Hierarchy.retire hier;
  Htm.retire htm;
  stats
