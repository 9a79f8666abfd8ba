open Stx_machine

type abort_reason =
  | Conflict of { conf_addr : int; conf_pc : int option; aggressor : int }
  | Lock_subscription
  | Capacity
  | Explicit
  | Stm_conflict of { conf_addr : int; aggressor : int }

type status = Idle | Active | Doomed of abort_reason

(* All per-core speculative state lives in preallocated flat tables
   ([Linetbl]) that are [reset] (O(live entries)) instead of rebuilt, so
   a transaction attempt allocates nothing in the steady state.  As in
   an ASF L1 line, one entry per line holds the line's whole speculative
   state, so one probe answers an access: the full PC of the attempt's
   first access to the line and the read and written bits, packed as
   [pc lsl 2 lor written lor read] (never 0: a line enters the table
   with one of its bits set).  The global reader/writer indexes are
   dense bit matrices (line x core) rather than Hashtbls of masks, which
   also lifts the old 62-core ceiling: a line's holder set is a short
   vector of mask words. *)
type core_state = {
  mutable st : status;
  lines : Linetbl.t; (* line -> first-access pc and read/written bits *)
  mutable nread : int; (* lines with the read bit: the read set's size *)
  mutable worder : int array; (* written lines in first-write order, *)
  mutable nwritten : int; (* [nwritten] live: the write set *)
  wbuf : Linetbl.t; (* addr -> speculative value *)
  mutable last_rset : int; (* set sizes when speculative state was *)
  mutable last_wset : int; (* last discarded (commit or doom) *)
  mutable ts : int; (* begin timestamp (karma); 0 = never begun *)
}

let read_bit = 1
let written_bit = 2
let absent = 0

type t = {
  cfg : Config.t;
  policy : Stx_policy.t;
  memory : Memory.t;
  line_shift : int; (* log2 words_per_line, -1 when not a power of two *)
  cores : core_state array;
  readers : Bitmat.t; (* line x core: speculative readers *)
  writers : Bitmat.t;
  mask_words : int; (* words per holder-mask vector *)
  read_budget : int; (* lines; max_int when unbounded *)
  write_budget : int;
  lock_addr : int;
  mutable ts_counter : int;
  mutable on_publish : (line:int -> unit) option;
  mutable on_doom : (int -> unit) option;
}

let max_cores = 4096

let create ?(policy = Stx_policy.default) (cfg : Config.t) memory alloc =
  if cfg.Config.cores > max_cores then
    invalid_arg (Printf.sprintf "Htm.create: at most %d cores" max_cores);
  let hint, read_budget, write_budget =
    match policy.Stx_policy.capacity with
    | Stx_policy.Capacity.Unbounded -> (64, max_int, max_int)
    | Stx_policy.Capacity.Bounded { read_lines; write_lines } ->
      (min 4096 (max read_lines write_lines + 1), read_lines, write_lines)
  in
  let mk _ =
    {
      st = Idle;
      lines = Linetbl.create ~capacity_hint:(2 * hint) ();
      nread = 0;
      worder = Array.make hint 0;
      nwritten = 0;
      wbuf = Linetbl.create ~capacity_hint:hint ();
      last_rset = 0;
      last_wset = 0;
      ts = 0;
    }
  in
  let lock_addr = Alloc.alloc_shared alloc 1 in
  let readers = Bitmat.create ~cols:cfg.Config.cores ~rows_hint:4096 () in
  let wpl = cfg.Config.words_per_line in
  {
    cfg;
    policy;
    memory;
    line_shift =
      (if wpl > 0 && wpl land (wpl - 1) = 0 then begin
         let rec go s v = if v <= 1 then s else go (s + 1) (v lsr 1) in
         go 0 wpl
       end
       else -1);
    cores = Array.init cfg.Config.cores mk;
    readers;
    writers = Bitmat.create ~cols:cfg.Config.cores ~rows_hint:4096 ();
    mask_words = Bitmat.words_per_row readers;
    read_budget;
    write_budget;
    lock_addr;
    ts_counter = 0;
    on_publish = None;
    on_doom = None;
  }

let set_on_publish t f = t.on_publish <- f
let set_on_doom t f = t.on_doom <- f

let note_doom t victim = match t.on_doom with Some f -> f victim | None -> ()

let note_publish t line =
  match t.on_publish with Some f -> f ~line | None -> ()

let config t = t.cfg
let policy t = t.policy

let line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift
  else Memory.line_of ~words_per_line:t.cfg.Config.words_per_line addr

let status t ~core = t.cores.(core).st

let bpw = Bitmat.bits_per_word

(* Word [w] of the holder mask for [line] — writers, plus readers when
   [with_readers] — with the bit of [except] removed. *)
let union_word t ~line ~with_readers ~except w =
  let m =
    Bitmat.row_word t.writers ~row:line w
    lor if with_readers then Bitmat.row_word t.readers ~row:line w else 0
  in
  if w = except / bpw then m land lnot (1 lsl (except mod bpw)) else m

(* Any holder of [line] other than [core]?  The allocation-free fast
   path of every conflict check. *)
let holders_other t ~line ~with_readers ~core =
  Bitmat.row_has_other t.writers ~row:line ~except:core
  || (with_readers && Bitmat.row_has_other t.readers ~row:line ~except:core)

let discard_speculative t core =
  let c = t.cores.(core) in
  c.last_rset <- c.nread;
  c.last_wset <- c.nwritten;
  for i = 0 to Linetbl.length c.lines - 1 do
    let line = Linetbl.key_of_order c.lines i and v = Linetbl.value_of_order c.lines i in
    if v land read_bit <> 0 then Bitmat.clear t.readers ~row:line ~col:core;
    if v land written_bit <> 0 then Bitmat.clear t.writers ~row:line ~col:core
  done;
  Linetbl.reset c.lines;
  c.nread <- 0;
  c.nwritten <- 0;
  Linetbl.reset c.wbuf

(* Every Active -> Doomed transition, whatever its cause, ends here, and
   so calls the doom hook exactly once. *)
let doom_core t core reason =
  discard_speculative t core;
  t.cores.(core).st <- Doomed reason;
  note_doom t core

(* The full PC of the attempt's first access to [line], or -1. *)
let first_pc c line =
  let v = Linetbl.find c.lines line ~absent in
  if v = absent then -1 else v asr 2

(* requester-wins: doom the victim, delivering the conflicting address, the
   victim's own first-access PC for the line, and the aggressor (requester)
   core *)
let doom t ~requester ~victim ~conf_addr =
  let c = t.cores.(victim) in
  match c.st with
  | Active ->
    let pc = first_pc c (line_of t conf_addr) in
    let conf_pc = if pc >= 0 then Some pc else None in
    doom_core t victim (Conflict { conf_addr; conf_pc; aggressor = requester })
  | Idle | Doomed _ -> ()

(* Doom each core of mask word [m] (lowest column [col0]): a top-level
   loop, so a conflict allocates no closure. *)
let rec doom_word t ~requester ~conf_addr col0 m =
  if m <> 0 then begin
    let b = m land -m in
    doom t ~requester ~victim:(col0 + Bitmat.ctz_pow2 b) ~conf_addr;
    doom_word t ~requester ~conf_addr col0 (m lxor b)
  end

(* doom every holder of [line] other than [requester]; the masks are read
   word-by-word before dooming, so victims clearing their bits mid-walk
   cannot disturb the iteration *)
let doom_all t ~requester ~line ~with_readers ~conf_addr =
  for w = 0 to t.mask_words - 1 do
    doom_word t ~requester ~conf_addr (w * bpw)
      (union_word t ~line ~with_readers ~except:requester w)
  done

(* suicide: the requester dooms itself, naming the (surviving) responder as
   the aggressor. [full_pc] is the requester's own PC for the access (or its
   first-access tag for the line, at lazy commit); -1 for none. *)
let self_doom t ~core ~conf_addr ~full_pc ~aggressor =
  let conf_pc = if full_pc >= 0 then Some full_pc else None in
  doom_core t core (Conflict { conf_addr; conf_pc; aggressor })

(* the lowest-numbered holder of [line] other than [core] (-1 if none) *)
let lowest_other t ~line ~with_readers ~core =
  let rec go w =
    if w >= t.mask_words then -1
    else
      let m = union_word t ~line ~with_readers ~except:core w in
      if m = 0 then go (w + 1) else (w * bpw) + Bitmat.ctz_pow2 (m land -m)
  in
  go 0

(* the oldest opponent holding [line] that outranks the requester's
   timestamp (smaller = older = wins), or -1 *)
let older_opponent t ~core ~line ~with_readers =
  let my_ts = t.cores.(core).ts in
  let best_ts = ref max_int in
  let best = ref (-1) in
  let f v =
    let ts = t.cores.(v).ts in
    if ts < my_ts && ts < !best_ts then begin
      best_ts := ts;
      best := v
    end
  in
  for w = 0 to t.mask_words - 1 do
    Bitmat.iter_word f (w * bpw) (union_word t ~line ~with_readers ~except:core w)
  done;
  !best

(* Resolve a conflict between a speculative requester on [core] and the
   transactions holding [line] (every core in the readers/writers index is
   [Active]: doomed and committed cores leave the index when their
   speculative state is discarded). Returns [true] when the requester
   survives and the access may proceed.  Callers check
   {!holders_other} first, so this is off the no-conflict fast path. *)
let resolve t ~core ~conf_addr ~full_pc ~line ~with_readers =
  match t.policy.Stx_policy.resolution with
  | Stx_policy.Resolution.Requester_wins ->
    doom_all t ~requester:core ~line ~with_readers ~conf_addr;
    true
  | Stx_policy.Resolution.Responder_wins ->
    self_doom t ~core ~conf_addr ~full_pc
      ~aggressor:(lowest_other t ~line ~with_readers ~core);
    false
  | Stx_policy.Resolution.Timestamp -> (
    match older_opponent t ~core ~line ~with_readers with
    | -1 ->
      doom_all t ~requester:core ~line ~with_readers ~conf_addr;
      true
    | v ->
      self_doom t ~core ~conf_addr ~full_pc ~aggressor:v;
      false)

(* The transaction tried to grow a set past its budget. The line that did
   not fit is counted before the discard captures the sizes, so the abort
   event reports the footprint at the moment the budget was exceeded
   rather than the post-reset 0/0. *)
let capacity_doom t ~core ~read =
  let c = t.cores.(core) in
  if read then c.nread <- c.nread + 1 else c.nwritten <- c.nwritten + 1;
  doom_core t core Capacity

let require_active t core op =
  match t.cores.(core).st with
  | Active -> ()
  | Idle | Doomed _ ->
    invalid_arg (Printf.sprintf "Htm.%s: core %d has no active transaction" op core)

let tx_begin ?(fresh = true) t ~core =
  let c = t.cores.(core) in
  (match c.st with
  | Idle -> ()
  | Active | Doomed _ -> invalid_arg "Htm.tx_begin: transaction already in flight");
  if fresh || c.ts = 0 then begin
    t.ts_counter <- t.ts_counter + 1;
    c.ts <- t.ts_counter
  end;
  c.st <- Active

(* Set [bit] in [line]'s entry [v], creating the entry with the access's
   PC as the line's tag. *)
let mark c line v ~pc bit =
  Linetbl.add c.lines line ((if v = absent then pc lsl 2 else v) lor bit)

(* Read through the local write buffer, without allocating an option.
   It holds words of written lines only, so [v], the line's entry,
   says whether to probe it at all. *)
let load_through c memory addr v =
  if v land written_bit = 0 then Memory.load memory addr
  else
    let wi = Linetbl.idx c.wbuf addr in
    if wi >= 0 then Linetbl.value_at c.wbuf wi else Memory.load memory addr

let tx_load t ~core ~addr ~pc =
  require_active t core "tx_load";
  let c = t.cores.(core) in
  let line = line_of t addr in
  let survived =
    t.cfg.Config.lazy_htm
    || (not (holders_other t ~line ~with_readers:false ~core))
    || resolve t ~core ~conf_addr:addr ~full_pc:pc ~line ~with_readers:false
  in
  if not survived then
    (* self-doomed: the speculative state (including the write buffer) is
       gone; hand back committed memory, the value is dead anyway *)
    Memory.load t.memory addr
  else begin
    let v = Linetbl.find c.lines line ~absent in
    if v land read_bit <> 0 then load_through c t.memory addr v
    else if c.nread >= t.read_budget then begin
      capacity_doom t ~core ~read:true;
      Memory.load t.memory addr
    end
    else begin
      mark c line v ~pc read_bit;
      c.nread <- c.nread + 1;
      Bitmat.set t.readers ~row:line ~col:core;
      load_through c t.memory addr v
    end
  end

let tx_store t ~core ~addr ~value ~pc =
  require_active t core "tx_store";
  let c = t.cores.(core) in
  let line = line_of t addr in
  let survived =
    t.cfg.Config.lazy_htm
    || (not (holders_other t ~line ~with_readers:true ~core))
    || resolve t ~core ~conf_addr:addr ~full_pc:pc ~line ~with_readers:true
  in
  if not survived then ()
  else begin
    let v = Linetbl.find c.lines line ~absent in
    if v land written_bit <> 0 then Linetbl.add c.wbuf addr value
    else if c.nwritten >= t.write_budget then capacity_doom t ~core ~read:false
    else begin
      mark c line v ~pc written_bit;
      if c.nwritten = Array.length c.worder then begin
        let a = Array.make (2 * c.nwritten) 0 in
        Array.blit c.worder 0 a 0 c.nwritten;
        c.worder <- a
      end;
      c.worder.(c.nwritten) <- line;
      c.nwritten <- c.nwritten + 1;
      Bitmat.set t.writers ~row:line ~col:core;
      Linetbl.add c.wbuf addr value
    end
  end

let tx_commit t ~core =
  require_active t core "tx_commit";
  let c = t.cores.(core) in
  (* late subscription to the global lock *)
  if Memory.load t.memory t.lock_addr <> 0 then begin
    doom_core t core Lock_subscription;
    false
  end
  else begin
    (* lazy mode: conflicts surface at commit time — under requester-wins
       the committer dooms every transaction that touched a line this write
       set covers; under the other policies the committer itself may lose,
       which ends the walk (a self-doom resets the counters, not the
       first-write order it reads) *)
    if t.cfg.Config.lazy_htm then begin
      match t.policy.Stx_policy.resolution with
      | Stx_policy.Resolution.Requester_wins ->
        for i = 0 to c.nwritten - 1 do
          let line = c.worder.(i) in
          doom_all t ~requester:core ~line ~with_readers:true
            ~conf_addr:(line * t.cfg.Config.words_per_line)
        done
      | Stx_policy.Resolution.Responder_wins | Stx_policy.Resolution.Timestamp
        ->
        let n = c.nwritten in
        let i = ref 0 in
        while !i < n && c.st == Active do
          let line = c.worder.(!i) in
          if holders_other t ~line ~with_readers:true ~core then
            ignore
              (resolve t ~core
                 ~conf_addr:(line * t.cfg.Config.words_per_line)
                 ~full_pc:(first_pc c line) ~line ~with_readers:true);
          incr i
        done
    end;
    if (match c.st with Active -> false | Idle | Doomed _ -> true) then false
    else begin
      for i = 0 to Linetbl.length c.wbuf - 1 do
        Memory.store t.memory
          (Linetbl.key_of_order c.wbuf i)
          (Linetbl.value_of_order c.wbuf i)
      done;
      (* published lines are visible to the software tier too: bump their
         STM version words so a software reader that raced this commit
         fails validation instead of observing a torn snapshot *)
      (match t.on_publish with
      | None -> ()
      | Some f ->
        for i = 0 to c.nwritten - 1 do
          f ~line:c.worder.(i)
        done);
      discard_speculative t core;
      c.st <- Idle;
      true
    end
  end

let tx_self_abort t ~core =
  require_active t core "tx_self_abort";
  doom_core t core Explicit

let tx_cleanup t ~core =
  let c = t.cores.(core) in
  match c.st with
  | Doomed reason ->
    (* speculative state was discarded when the transaction was doomed *)
    c.st <- Idle;
    reason
  | Idle | Active -> invalid_arg "Htm.tx_cleanup: transaction not doomed"

let read_set_size t ~core = t.cores.(core).nread

let last_set_sizes t ~core =
  let c = t.cores.(core) in
  (c.last_rset, c.last_wset)

let nt_load t ~addr = Memory.load t.memory addr

(* a nontransactional store cannot be rolled back, so it wins under every
   resolution policy — like any nonspeculative agent's write *)
let nt_store t ~core ~addr ~value =
  let line = line_of t addr in
  if holders_other t ~line ~with_readers:true ~core then
    doom_all t ~requester:core ~line ~with_readers:true ~conf_addr:addr;
  note_publish t line;
  Memory.store t.memory addr value

let nt_cas t ~core ~addr ~expected ~desired =
  if Memory.load t.memory addr = expected then begin
    nt_store t ~core ~addr ~value:desired;
    true
  end
  else false

let global_lock_held t = Memory.load t.memory t.lock_addr <> 0

let acquire_global_lock t ~core =
  nt_cas t ~core ~addr:t.lock_addr ~expected:0 ~desired:1

let release_global_lock t = Memory.store t.memory t.lock_addr 0

(* Release the reader/writer index rows for reuse by the next run; [t]
   must not be used afterwards. *)
let retire t =
  Bitmat.retire t.readers;
  Bitmat.retire t.writers

(* --- software-tier interop -------------------------------------------- *)

let writers_present t ~line =
  not (Bitmat.row_is_empty t.writers ~row:line)

(* an STM commit wins against speculative hardware readers and writers for
   the same reason a nontransactional store does: its published values are
   already durable, so the hardware transactions it raced are doomed — with
   a dedicated reason so the runtime can count cross-tier friction *)
let stm_doom t ~aggressor ~victim ~conf_addr =
  match t.cores.(victim).st with
  | Active -> doom_core t victim (Stm_conflict { conf_addr; aggressor })
  | Idle | Doomed _ -> ()

let stm_publish t ~core ~addr ~value =
  let line = line_of t addr in
  if holders_other t ~line ~with_readers:true ~core then begin
    let f v = stm_doom t ~aggressor:core ~victim:v ~conf_addr:addr in
    for w = 0 to t.mask_words - 1 do
      Bitmat.iter_word f (w * bpw)
        (union_word t ~line ~with_readers:true ~except:core w)
    done
  end;
  Memory.store t.memory addr value
