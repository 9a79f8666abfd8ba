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

(* A TIR function lowered to flat code, on its first call in a run (see
   [lower] for the encoding). A frame's slots hold the registers, then the
   constant pool, so every operand is one slot read: a register or an
   immediate alike. *)
type fn = {
  code : int array;
  nregs : int;
  pool : int array; (* the immediates, in slots [nregs, nregs + length pool) *)
  callees : fn array; (* per call site: the lowered callee, [unlowered] until called *)
  callee_names : string array;
}

let unlowered = { code = [||]; nregs = 0; pool = [||]; callees = [||]; callee_names = [||] }

(* Call frames live in a per-thread pool indexed by depth: a call reuses
   the record (and its slot array) left by the last frame at that depth,
   so the steady state pushes and pops without allocating. *)
type frame = {
  mutable fn : fn;
  mutable pc : int; (* offset of the next op in [fn.code] *)
  mutable regs : int array; (* registers (zeroed on push), then [fn.pool] *)
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
  mutable hw_doomed : bool;
      (* the hardware attempt is doomed: set by the HTM's doom hook on
         every Active -> Doomed transition, cleared when the abort is
         handled *)
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
  lowered : (string, fn) Hashtbl.t; (* every function lowered so far, by name *)
  ab_fns : fn array; (* per atomic block: lowered root function, or [unlowered] *)
  ab_rows : Stats.ab_stat option array; (* per atomic block: its [Stats.ab] row *)
  conf_lines : Linetbl.t; (* conflicting line -> aborts, in first-seen order *)
  conf_pcs : Linetbl.t; (* conflicting PC tag -> aborts, likewise *)
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

let check_addr m addr =
  if addr < wpl m then trap "invalid memory access at address %d (null page)" addr

let mem_latency m th ~addr ~write =
  Hierarchy.access m.hier ~core:th.tid ~line:(line_of m addr) ~write

(* the row of [Stats.per_ab] for atomic block [ab], looked up once per run *)
let ab_row m ab =
  match m.ab_rows.(ab) with
  | Some row -> row
  | None ->
    let row = Stats.ab m.stats ab in
    m.ab_rows.(ab) <- Some row;
    row

let tally t k = Linetbl.add t k (Linetbl.find t k ~absent:0 + 1)

(* The per-run conflict tallies start at 512 slots: arrays past the
   minor heap's largest block (256 words) are allocated in the major
   heap, so a run with a few hundred conflicting lines does not double
   them through the minor heap. *)
let conf_hint = 256

(* ------------------------------------------------------------------ *)
(* lowering                                                            *)

(* Flat code: each op is an opcode followed by its operand words. [d] is
   a destination register (-1: none), [s] a frame slot (a register or a
   constant pool entry), [@] a code offset.

     0-15  Add .. Ge, in [Ir.binop] order   d s s
     16    Mov                              d s
     17    Idx                              d s s esize
     18    Jmp                              @
     19    Br                               s @ @   (non-zero: the first)
           (the straight-line ops above run in [straight])
     20    Call                             k d n s1 .. sn   (k: index in [callees])
     21    Atomic_call                      ab d n s1 .. sn
     22    Load                             d s pc
     23    Store                            s s pc
     24    Alloc                            d words
     25    Alloc_arr                        d words s
     26    Rng                              d s
     27    Thread_id                        d
     28    Work                             s
     29    Print
     30    Abort_tx
     31    Alp                              site s
     32    Ret                              s   (Ret None returns 0)
     33    an intrinsic of the wrong arity, which traps when run

   A Gep is an Add of its field offset. The dispatch in [straight] and
   [exec_op] matches these numbers. *)
let op_div = 3
let op_rem = 4
let op_mov = 16 (* the first op past the binops *)
let op_br = 19 (* the last straight-line op *)

let opcode_of_binop = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> op_div
  | Ir.Rem -> op_rem
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Shr -> 9
  | Ir.Eq -> 10
  | Ir.Ne -> 11
  | Ir.Lt -> 12
  | Ir.Le -> 13
  | Ir.Gt -> 14
  | Ir.Ge -> 15

(* A function being lowered, in two passes over the same encoder: the
   first only counts, sizing the code and finding each block's offset;
   the second writes it, with jump targets resolved. *)
type lowering = {
  mutable out : int array; (* [||] in the first pass *)
  mutable len : int;
  mutable consts : int list; (* the pool, newest first *)
  mutable ncallees : int;
  mutable callee_list : string list; (* newest first *)
  starts : int array; (* per block: its code offset *)
  nregs : int;
}

let put lw x =
  if Array.length lw.out > 0 then lw.out.(lw.len) <- x;
  lw.len <- lw.len + 1

(* position of [n] in a pool listed newest first, counted from the oldest *)
let rec pool_index n = function
  | [] -> -1
  | c :: rest -> if c = n then List.length rest else pool_index n rest

(* the slot of immediate [n], added to the pool on first use *)
let const lw n =
  let i = pool_index n lw.consts in
  if i >= 0 then lw.nregs + i
  else begin
    lw.consts <- n :: lw.consts;
    lw.nregs + List.length lw.consts - 1
  end

let slot lw = function Ir.Reg r -> r | Ir.Imm n -> const lw n

let dst = function Some d -> d | None -> -1

let put_args lw args =
  put lw (List.length args);
  List.iter (fun a -> put lw (slot lw a)) args

let words m sname = Types.size (Ir.find_struct m.compiled.Pipeline.prog sname)
let pc_of m (ins : Ir.inst) = Layout.pc_of_iid m.compiled.Pipeline.layout ins.Ir.iid

let put2 lw a b =
  put lw a;
  put lw b

let put3 lw a b c =
  put2 lw a b;
  put lw c

let put4 lw a b c d =
  put3 lw a b c;
  put lw d

let put_inst m lw (ins : Ir.inst) =
  match ins.Ir.op with
  | Ir.Bin (op, d, a, b) -> put4 lw (opcode_of_binop op) d (slot lw a) (slot lw b)
  | Ir.Mov (d, v) -> put3 lw 16 d (slot lw v)
  | Ir.Gep (d, b, _, fi) -> put4 lw 0 d b (const lw fi)
  | Ir.Idx (d, b, esize, i) ->
    put4 lw 17 d b (slot lw i);
    put lw esize
  | Ir.Call (d, g, args) ->
    put3 lw 20 lw.ncallees (dst d);
    put_args lw args;
    lw.callee_list <- g :: lw.callee_list;
    lw.ncallees <- lw.ncallees + 1
  | Ir.Atomic_call (d, ab, args) ->
    put3 lw 21 ab (dst d);
    put_args lw args
  | Ir.Load (d, p) -> put4 lw 22 d p (pc_of m ins)
  | Ir.Store (p, v) -> put4 lw 23 p (slot lw v) (pc_of m ins)
  | Ir.Alloc (d, sname) -> put3 lw 24 d (words m sname)
  | Ir.Alloc_arr (d, sname, n) -> put4 lw 25 d (words m sname) (slot lw n)
  | Ir.Intr (d, Ir.Rng, [ n ]) -> put3 lw 26 (dst d) (slot lw n)
  | Ir.Intr (d, Ir.Thread_id, []) -> put2 lw 27 (dst d)
  | Ir.Intr (_, Ir.Work, [ n ]) -> put2 lw 28 (slot lw n)
  | Ir.Intr (_, Ir.Print, [ _ ]) -> put lw 29
  | Ir.Intr (_, Ir.Abort_tx, []) -> put lw 30
  | Ir.Intr _ -> put lw 33
  | Ir.Alp a -> put3 lw 31 a.Ir.alp_site a.Ir.alp_addr

let target lw (func : Ir.func) l = lw.starts.(Ir.block_index func l)

let put_func m lw (func : Ir.func) =
  lw.len <- 0;
  lw.ncallees <- 0;
  lw.callee_list <- [];
  for bi = 0 to Array.length func.Ir.blocks - 1 do
    let b = func.Ir.blocks.(bi) in
    lw.starts.(bi) <- lw.len;
    for i = 0 to Array.length b.Ir.insts - 1 do
      put_inst m lw b.Ir.insts.(i)
    done;
    match b.Ir.term with
    | Ir.Jmp l -> put2 lw 18 (target lw func l)
    | Ir.Br (c, l1, l2) -> put4 lw 19 (slot lw c) (target lw func l1) (target lw func l2)
    | Ir.Ret v -> put2 lw 32 (match v with Some v -> slot lw v | None -> const lw 0)
  done

let lower m (func : Ir.func) =
  let lw =
    {
      out = [||];
      len = 0;
      consts = [];
      ncallees = 0;
      callee_list = [];
      starts = Array.make (Array.length func.Ir.blocks) 0;
      nregs = func.Ir.nregs;
    }
  in
  put_func m lw func;
  lw.out <- Array.make lw.len 0;
  put_func m lw func;
  {
    code = lw.out;
    nregs = lw.nregs;
    pool = Array.of_list (List.rev lw.consts);
    callees = Array.make lw.ncallees unlowered;
    callee_names = Array.of_list (List.rev lw.callee_list);
  }

let lowered m name =
  match Hashtbl.find_opt m.lowered name with
  | Some fn -> fn
  | None ->
    let fn = lower m (Ir.find_func m.compiled.Pipeline.prog name) in
    Hashtbl.add m.lowered name fn;
    fn

let callee m (fn : fn) k =
  let g = fn.callees.(k) in
  if g != unlowered then g
  else begin
    let g = lowered m fn.callee_names.(k) in
    fn.callees.(k) <- g;
    g
  end

let ab_root m ab =
  let fn = m.ab_fns.(ab) in
  if fn != unlowered then fn
  else begin
    let fn = lowered m m.compiled.Pipeline.prog.Ir.atomics.(ab).Ir.ab_func in
    m.ab_fns.(ab) <- fn;
    fn
  end

(* an unused pool slot: [push_frame] sets every field before the frame
   is read, reusing [regs] while it is large enough *)
let new_frame () = { fn = unlowered; pc = 0; regs = Array.make 8 0; ret_dst = -1 }

let grow_frames th =
  let old = th.frames in
  let n = Array.length old in
  th.frames <- Array.init (2 * n) (fun i -> if i < n then old.(i) else new_frame ())

let push_frame th (fn : fn) args nargs ret_dst =
  if th.depth >= Array.length th.frames then grow_frames th;
  let fr = th.frames.(th.depth) in
  let nregs = fn.nregs and npool = Array.length fn.pool in
  if Array.length fr.regs < nregs + npool then begin
    fr.regs <- Array.make (imax (nregs + npool) (2 * Array.length fr.regs)) 0;
    Array.blit fn.pool 0 fr.regs nregs npool
  end
  else begin
    Array.fill fr.regs 0 nregs 0;
    (* nothing writes past the registers, so a frame that last ran [fn]
       still holds its pool *)
    if fr.fn != fn then Array.blit fn.pool 0 fr.regs nregs npool
  end;
  (* arguments past the parameters are never read (verified
     def-before-use); past the registers they would overwrite the pool *)
  Array.blit args 0 fr.regs 0 (imin nargs nregs);
  fr.fn <- fn;
  fr.pc <- 0;
  fr.ret_dst <- ret_dst;
  th.depth <- th.depth + 1

(* copy a call's [n] argument slots, listed from [code.(at)], into
   [th.argbuf] (fully consumed by [push_frame] or [start_atomic]) *)
let gather th (regs : int array) (code : int array) at n =
  if n > Array.length th.argbuf then
    th.argbuf <- Array.make (imax n (2 * Array.length th.argbuf)) 0;
  for i = 0 to n - 1 do
    th.argbuf.(i) <- regs.(code.(at + i))
  done

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

(* The smaller of two keys, without a branch: keys lie in [0, max_int],
   so [a - b] cannot overflow, and its sign bit (bit 62 of a 63-bit int)
   spread across the word selects [a - b] or 0. *)
let kmin (a : int) b =
  let d = a - b in
  b + (d land (d asr 62))

(* Re-settle the tree above a changed leaf, all the way to the root. A
   node off the path keeps its minimum, and a node whose minimum did not
   change is rewritten with the same value, so every key ends as an
   early exit would leave it, but the walk takes no data-dependent
   branch. *)
let settle (keys : int array) i =
  let i = ref i in
  while !i >= 1 do
    keys.(!i) <- kmin keys.(2 * !i) keys.((2 * !i) + 1);
    i := !i lsr 1
  done

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
  let ab = ab_row m tx.tx_ab in
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
        if Advisory_lock.waiters m.locks ~idx >= m.policy.Policy.max_waiters then ()
        else begin
          Advisory_lock.add_waiter m.locks ~idx;
          th.wait <-
            Some (Lock_spin { idx; line; deadline = th.time + m.policy.Policy.lock_timeout });
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
         policy an aborted transaction ages into priority (the constant
         label allocates nothing, where a computed one builds a [Some]) *)
      if tx.tx_attempt = 0 then Htm.tx_begin m.htm ~core:th.tid
      else Htm.tx_begin ~fresh:false m.htm ~core:th.tid;
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
  let ab = ab_row m tx.tx_ab in
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
   oracle; [conf_pc] is the truncated tag, -1 for none *)
let identify_anchor m th ~ab ~line ~conf_pc ~conf_pc_full =
  let table = Pipeline.table_for m.compiled ~ab in
  let runtime_anchor =
    match m.mode with
    | Mode.Staggered_hw ->
      Policy.resolve_anchor table ~conf_pc:(if conf_pc < 0 then None else Some conf_pc)
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
  let ab = ab_row m tx.tx_ab in
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
    th.hw_doomed <- false;
    (* set sizes at doom time: the live sets were reset when the
       transaction was doomed, possibly long before this handler ran *)
    let rset, wset = Htm.last_set_sizes m.htm ~core:th.tid in
    release_lock m th ~committed:false;
    let wasted = book_abort m th in
    let ctx = th.contexts.(tx.tx_ab) in
    let conf_line = ref (-1) in
    (* the hardware's conflicting-PC tag, at the width the program was
       compiled for (a truncated tag is never negative: -1 is none) *)
    let conf_pc =
      match reason with
      | Htm.Conflict { conf_pc = Some pc; _ } ->
        Layout.truncate ~bits:m.compiled.Pipeline.pc_bits pc
      | _ -> -1
    in
    (match reason with
    | Htm.Conflict { conf_addr; conf_pc = conf_pc_full; _ } ->
      m.stats.Stats.conflict_aborts <- m.stats.Stats.conflict_aborts + 1;
      let line = line_of m conf_addr in
      conf_line := line;
      tally m.conf_lines line;
      if conf_pc >= 0 then tally m.conf_pcs conf_pc;
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
      tally m.conf_lines line);
    if m.evt then begin
      let kind, aggressor =
        match reason with
        | Htm.Conflict { aggressor; _ } -> (Conflict, Some aggressor)
        | Htm.Lock_subscription -> (Lock_subscription, None)
        | Htm.Capacity -> (Capacity, None)
        | Htm.Explicit -> (Explicit, None)
        | Htm.Stm_conflict { aggressor; _ } -> (Stm_conflict, Some aggressor)
      in
      emit m th
        (Tx_abort
           {
             tid = th.tid;
             ab = tx.tx_ab;
             kind;
             conf_line = (if !conf_line < 0 then None else Some !conf_line);
             conf_pc = (if conf_pc < 0 then None else Some conf_pc);
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

let exec_alp m th ~site ~addr =
  charge m th m.cfg.Config.alp_inactive_cost;
  if speculative th && Mode.uses_alps m.mode then begin
    let tx = th.txs in
    m.stats.Stats.alps_executed <- m.stats.Stats.alps_executed + 1;
    if addr >= wpl m then begin
      (* software conflicting-PC tracking: one nt probe, plus one nt store
         when the line was absent from the map *)
      if (match m.mode with Mode.Staggered_sw -> true | _ -> false) then begin
        charge m th (2 * m.cfg.Config.l1_latency);
        if Softcpc.note th.softcpc ~line:(line_of m addr) ~site:site then
          charge m th m.cfg.Config.l1_latency
      end;
      let ctx = th.contexts.(tx.tx_ab) in
      let fired =
        ctx.Abcontext.active_site = site
        && Abcontext.address_matched ctx ~words_per_line:(wpl m) ~addr
      in
      if m.evt then
        emit m th
          (Alp_executed { tid = th.tid; ab = tx.tx_ab; site = site; fired });
      if fired then begin
        ignore (Abcontext.consume_active ctx ~site:site);
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
           { tid = th.tid; ab = tx.tx_ab; site = site; fired = false })
  end

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

let count_inst m th =
  m.stats.Stats.insts <- m.stats.Stats.insts + 1;
  if th.tx_active then begin
    th.txs.tx_insts <- th.txs.tx_insts + 1;
    m.stats.Stats.tx_insts <- m.stats.Stats.tx_insts + 1
  end

(* Run the top frame's straight-line ops (opcodes 0-19: Mov, Bin, Gep,
   Idx, Jmp, Br; one cycle each, and thread-local) from its [pc], until
   the thread's run-ahead log holds [limit] entries, the next op is
   another kind, or it divides by zero (which traps, unless a doom lands
   first). Each op's start cycle and the attempt's [tx_insts] before it
   are logged from index [n0] on, for [rewind]. The clock, [pc] and
   counters live in locals and are written back once. Returns the new
   log length. *)
let straight m th (f : frame) n0 limit =
  let code = f.fn.code and r = f.regs in
  let ra_time = th.ra_time and ra_insts = th.ra_insts in
  let t0 = th.time - n0 and i0 = th.txs.tx_insts in
  let dtx = if th.tx_active then 1 else 0 in
  let pc = ref f.pc and n = ref n0 and ni = ref 0 and lim = ref limit in
  while !n < !lim do
    let p = !pc and i = !n in
    ra_time.(i) <- t0 + i;
    ra_insts.(i) <- i0 + (dtx * !ni);
    let c = code.(p) in
    if c < op_mov then begin
      let a = r.(code.(p + 2)) and b = r.(code.(p + 3)) in
      if b = 0 && (c = op_div || c = op_rem) then lim := i
      else begin
        r.(code.(p + 1)) <-
          (match c with
          | 0 (* Add *) -> a + b
          | 1 (* Sub *) -> a - b
          | 2 (* Mul *) -> a * b
          | 3 (* Div *) -> a / b
          | 4 (* Rem *) -> a mod b
          | 5 (* And *) -> a land b
          | 6 (* Or *) -> a lor b
          | 7 (* Xor *) -> a lxor b
          | 8 (* Shl *) -> a lsl (b land 63)
          | 9 (* Shr *) -> a asr (b land 63)
          | 10 (* Eq *) -> if a = b then 1 else 0
          | 11 (* Ne *) -> if a <> b then 1 else 0
          | 12 (* Lt *) -> if a < b then 1 else 0
          | 13 (* Le *) -> if a <= b then 1 else 0
          | 14 (* Gt *) -> if a > b then 1 else 0
          | _ (* Ge *) -> if a >= b then 1 else 0);
        pc := p + 4;
        incr ni;
        n := i + 1
      end
    end
    else
      match c with
      | 16 (* Mov *) ->
        r.(code.(p + 1)) <- r.(code.(p + 2));
        pc := p + 3;
        incr ni;
        n := i + 1
      | 17 (* Idx *) ->
        r.(code.(p + 1)) <- r.(code.(p + 2)) + (code.(p + 4) * r.(code.(p + 3)));
        pc := p + 5;
        incr ni;
        n := i + 1
      | 18 (* Jmp *) ->
        pc := code.(p + 1);
        n := i + 1
      | 19 (* Br *) ->
        pc := if r.(code.(p + 1)) <> 0 then code.(p + 2) else code.(p + 3);
        n := i + 1
      | _ -> lim := i
  done;
  let k = !n - n0 and ni = !ni in
  f.pc <- !pc;
  th.time <- t0 + !n;
  let s = m.stats in
  s.Stats.insts <- s.Stats.insts + ni;
  if th.tx_active then begin
    th.txs.tx_insts <- th.txs.tx_insts + ni;
    s.Stats.tx_insts <- s.Stats.tx_insts + ni;
    s.Stats.tx_mode_cycles <- s.Stats.tx_mode_cycles + k
  end;
  !n

(* Execute the thread's next op and return true. With [local_only], only
   a thread-local op other than the straight-line ones (which run ahead
   in [straight]) runs; anything else returns false, leaving the thread
   untouched. Thread-local ops read and write the thread's own
   registers, frames and clock and nothing else, so no other thread can
   observe when they run. Not thread-local: memory, allocation, the RNG
   (its draws outlive an abort), ALPs, atomic calls, print and the
   explicit abort, a division by zero (which traps, unless a doom lands
   first), and a return that commits a transaction or ends the thread. *)
let exec_op m th ~local_only =
  let f = frame_of th in
  let code = f.fn.code and r = f.regs and p = f.pc in
  let c = code.(p) in
  if c <= op_br then
    (not local_only)
    && (straight m th f 0 1 > 0
       || trap "%s by zero" (if c = op_div then "division" else "remainder"))
  else
    match c with
    | 21 | 22 | 23 | 24 | 25 | 26 | 29 | 30 | 31 | 33 when local_only -> false
    | 32 (* Ret *)
      when local_only
           && (th.depth = 1 || (th.tx_active && th.depth - 1 = th.txs.tx_base_depth)) ->
      false
    | 20 (* Call *) ->
      let n = code.(p + 3) in
      f.pc <- p + 4 + n;
      count_inst m th;
      charge m th 2;
      gather th r code (p + 4) n;
      push_frame th (callee m f.fn code.(p + 1)) th.argbuf n code.(p + 2);
      true
    | 21 (* Atomic_call *) ->
      let n = code.(p + 3) in
      f.pc <- p + 4 + n;
      count_inst m th;
      if in_tx th then trap "nested atomic call";
      gather th r code (p + 4) n;
      start_atomic m th ~ab:code.(p + 1) ~dst:code.(p + 2) ~args:th.argbuf ~nargs:n;
      true
    | 22 (* Load *) ->
      f.pc <- p + 4;
      count_inst m th;
      let addr = r.(code.(p + 2)) in
      check_addr m addr;
      charge m th (mem_latency m th ~addr ~write:false);
      r.(code.(p + 1)) <-
        (if speculative th then Htm.tx_load m.htm ~core:th.tid ~addr ~pc:code.(p + 3)
         else if stm_active th then begin
           (* every software read also probes the line's version word *)
           let stm = the_stm m in
           charge m th
             (mem_latency m th
                ~addr:(Stm.version_addr stm ~line:(line_of m addr))
                ~write:false);
           Stm.tx_load stm ~core:th.tid ~addr
         end
         else Htm.nt_load m.htm ~addr);
      true
    | 23 (* Store *) ->
      f.pc <- p + 4;
      count_inst m th;
      let addr = r.(code.(p + 1)) in
      check_addr m addr;
      charge m th (mem_latency m th ~addr ~write:true);
      let value = r.(code.(p + 2)) in
      if speculative th then
        Htm.tx_store m.htm ~core:th.tid ~addr ~value ~pc:code.(p + 3)
      else if stm_active th then Stm.tx_store (the_stm m) ~core:th.tid ~addr ~value
      else Htm.nt_store m.htm ~core:th.tid ~addr ~value;
      true
    | 24 (* Alloc *) ->
      f.pc <- p + 3;
      count_inst m th;
      charge m th 20;
      r.(code.(p + 1)) <- Alloc.alloc m.allocator ~thread:th.tid code.(p + 2);
      true
    | 25 (* Alloc_arr *) ->
      f.pc <- p + 4;
      count_inst m th;
      charge m th 20;
      let n = r.(code.(p + 3)) in
      if n <= 0 then trap "alloc_arr with nonpositive count %d" n;
      r.(code.(p + 1)) <- Alloc.alloc m.allocator ~thread:th.tid (n * code.(p + 2));
      true
    | 26 (* Rng *) ->
      f.pc <- p + 3;
      count_inst m th;
      let b = r.(code.(p + 2)) in
      if b <= 0 then trap "rng with nonpositive bound %d" b;
      charge m th 5;
      let d = code.(p + 1) in
      if d >= 0 then r.(d) <- Stx_util.Rng.int th.rng b;
      true
    | 27 (* Thread_id *) ->
      f.pc <- p + 2;
      count_inst m th;
      charge m th 1;
      let d = code.(p + 1) in
      if d >= 0 then r.(d) <- th.tid;
      true
    | 28 (* Work *) ->
      f.pc <- p + 2;
      count_inst m th;
      charge m th (imax 0 r.(code.(p + 1)));
      true
    | 29 (* Print *) ->
      f.pc <- p + 1;
      count_inst m th;
      charge m th 1;
      true
    | 30 (* Abort_tx *) ->
      f.pc <- p + 1;
      count_inst m th;
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
      end;
      true
    | 31 (* Alp *) ->
      f.pc <- p + 3;
      count_inst m th;
      exec_alp m th ~site:code.(p + 1) ~addr:r.(code.(p + 2));
      true
    | 32 (* Ret *) ->
      charge m th 1;
      do_return m th r.(code.(p + 1));
      true
    | _ (* an intrinsic of the wrong arity *) ->
      f.pc <- p + 1;
      count_inst m th;
      trap "bad intrinsic arity"

(* ------------------------------------------------------------------ *)
(* the per-thread step                                                 *)

let spin_wait m th =
  charge m th m.cfg.Config.spin_recheck_cost;
  m.stats.Stats.lock_wait_cycles <-
    m.stats.Stats.lock_wait_cycles + m.cfg.Config.spin_recheck_cost

let step m th =
  m.steps <- m.steps + 1;
  if m.steps > m.max_steps then trap "simulation exceeded %d steps" m.max_steps;
  (* every op the thread ran ahead started before this step, so no doom
     can take one back now: the log is spent ([straight] reuses it) *)
  th.ra_len <- 0;
  (* a doomed speculative transaction aborts before doing anything else *)
  if th.hw_doomed then handle_abort m th
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
    && not th.hw_doomed
  then begin
    let go = ref true in
    while !go do
      let limit = imin ra_cap (!n + m.max_steps - m.steps) in
      let n' = straight m th (frame_of th) !n limit in
      m.steps <- m.steps + (n' - !n);
      n := n';
      (* a call, work, thread id or plain return, or the end of the run *)
      go :=
        n' < limit
        && begin
             th.ra_time.(n') <- th.time;
             th.ra_insts.(n') <- th.txs.tx_insts;
             exec_op m th ~local_only:true
           end;
      if !go then begin
        incr n;
        m.steps <- m.steps + 1
      end
    done
  end;
  th.ra_len <- !n

(* ------------------------------------------------------------------ *)
(* the run loop                                                        *)

let run ?(seed = 1) ?(policy = Policy.default_params)
    ?(htm_policy = Stx_policy.default) ?(max_steps = 400_000_000) ?on_event
    ?injector ~cfg ~mode spec =
  let evt, on_event =
    match on_event with
    | Some f -> (true, f)
    | None -> (false, fun ~time:_ _ -> ())
  in
  let memory = Memory.create () in
  let allocator = Alloc.create ~words_per_line:cfg.Config.words_per_line memory in
  let htm = Htm.create ~policy:htm_policy cfg memory allocator in
  let locks = Advisory_lock.create htm allocator in
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
  let mk_thread tid =
    {
      tid;
      time = 0;
      frames = Array.init 8 (fun _ -> new_frame ());
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
      hw_doomed = false;
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
  let m =
    {
      cfg;
      mode;
      policy;
      htm_policy;
      retry_budget = Stx_policy.Fallback.retry_budget htm_policy.Stx_policy.fallback;
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
      lowered = Hashtbl.create 16;
      ab_fns = Array.make n_abs unlowered;
      ab_rows = Array.make n_abs None;
      conf_lines = Linetbl.create ~capacity_hint:conf_hint ();
      conf_pcs = Linetbl.create ~capacity_hint:conf_hint ();
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
  let main_fn = lowered m spec.thread_main in
  Array.iter
    (fun th -> push_frame th main_fn args.(th.tid) (Array.length args.(th.tid)) (-1))
    threads;
  Htm.set_on_doom htm
    (Some
       (fun victim ->
         let th = threads.(victim) in
         th.hw_doomed <- true;
         rewind m th));
  Array.iter (fun th -> m.keys.(pw + th.tid) <- key_of m th) threads;
  for i = pw - 1 downto 1 do
    m.keys.(i) <- kmin m.keys.(2 * i) m.keys.((2 * i) + 1)
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
  Linetbl.iter (Hashtbl.replace stats.Stats.conf_addr_freq) m.conf_lines;
  Linetbl.iter (Hashtbl.replace stats.Stats.conf_pc_freq) m.conf_pcs;
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
