open Stx_machine
open Stx_htm

(* A TL2-style software transaction tier.

   Shared state lives in the simulated memory so the software tier is
   subject to the same coherence story as everything else: a striped
   table of per-cache-line version words (one word per stripe, encoded
   [2*version + lock_bit]) and a global version clock held host-side
   (the clock itself is only ever advanced inside a commit, which the
   discrete-event machine executes atomically, so it needs no simulated
   word). Reads validate against the clock value snapshotted at begin;
   writes buffer; commit locks the write stripes, re-validates the read
   set, publishes through {!Htm.stm_publish} (dooming speculative
   hardware holders), and stamps fresh versions.

   Like the hardware tier, the per-core sets are preallocated flat
   tables ([Linetbl]) reused across attempts, and the commit-time stripe
   walk sorts into a per-instance scratch array — the steady state
   allocates nothing. *)

type abort_kind = Validation | Hw_owned | Locksub | Explicit

type status = Idle | Active | Doomed of abort_kind

type core_state = {
  mutable st : status;
  mutable rv : int; (* clock snapshot at begin; reads validate against it *)
  read_set : Linetbl.t; (* line -> version word at first read *)
  write_lines : Linetbl.t; (* line -> 0 *)
  wbuf : Linetbl.t; (* addr -> buffered value *)
  mutable last_rset : int; (* set sizes when the buffered state was *)
  mutable last_wset : int; (* last discarded (commit or doom) *)
}

type t = {
  htm : Htm.t;
  memory : Memory.t;
  words_per_line : int;
  base : int; (* first version word *)
  mutable clock : int;
  cores : core_state array;
  mutable scratch : int array; (* sorted line/addr walks at commit *)
}

let stripes = 256

let create htm memory alloc =
  let cfg = Htm.config htm in
  let base = Alloc.alloc_shared alloc stripes in
  let mk _ =
    {
      st = Idle;
      rv = 0;
      read_set = Linetbl.create ~capacity_hint:64 ();
      write_lines = Linetbl.create ~capacity_hint:64 ();
      wbuf = Linetbl.create ~capacity_hint:64 ();
      last_rset = 0;
      last_wset = 0;
    }
  in
  {
    htm;
    memory;
    words_per_line = cfg.Config.words_per_line;
    base;
    clock = 0;
    cores = Array.init cfg.Config.cores mk;
    scratch = Array.make 64 0;
  }

let clock t = t.clock
let status t ~core = t.cores.(core).st

(* Fibonacci hashing of the cache-line index, as the advisory-lock table
   does; distinct lines may alias to one stripe, which can only produce
   spurious validation aborts, never a missed conflict. Exposed as a pure
   function so static analyses (the STX109 stripe-aliasing lint) and the
   simulator can never disagree on the mapping. *)
let stripe_of_line ~nslots ~line = line * 0x9E3779B1 land max_int mod nslots

let slot_of ~line = stripe_of_line ~nslots:stripes ~line

let version_addr t ~line = t.base + slot_of ~line

let line_of t addr = Memory.line_of ~words_per_line:t.words_per_line addr

let discard c =
  c.last_rset <- Linetbl.length c.read_set;
  c.last_wset <- Linetbl.length c.write_lines;
  Linetbl.reset c.read_set;
  Linetbl.reset c.write_lines;
  Linetbl.reset c.wbuf

let doom t ~core kind =
  let c = t.cores.(core) in
  discard c;
  c.st <- Doomed kind

let tx_begin t ~core =
  let c = t.cores.(core) in
  (match c.st with
  | Idle -> ()
  | Active | Doomed _ -> invalid_arg "Stm.tx_begin: transaction already in flight");
  c.st <- Active;
  c.rv <- t.clock;
  Linetbl.reset c.read_set;
  Linetbl.reset c.write_lines;
  Linetbl.reset c.wbuf

let tx_load t ~core ~addr =
  let c = t.cores.(core) in
  match c.st with
  | Idle -> invalid_arg "Stm.tx_load: core has no active transaction"
  | Doomed _ ->
    (* dead transaction: hand back committed memory, the value is never
       observable *)
    Memory.load t.memory addr
  | Active ->
    let wi = Linetbl.idx c.wbuf addr in
    if wi >= 0 then Linetbl.value_at c.wbuf wi
    else begin
      let line = line_of t addr in
      let va = version_addr t ~line in
      let w = Memory.load t.memory va in
      let ri = Linetbl.idx c.read_set line in
      if ri >= 0 then begin
        if w <> Linetbl.value_at c.read_set ri then doom t ~core Validation;
        Memory.load t.memory addr
      end
      else if w land 1 = 1 || w asr 1 > c.rv then begin
        doom t ~core Validation;
        Memory.load t.memory addr
      end
      else begin
        Linetbl.add c.read_set line w;
        Memory.load t.memory addr
      end
    end

let tx_store t ~core ~addr ~value =
  let c = t.cores.(core) in
  match c.st with
  | Idle -> invalid_arg "Stm.tx_store: core has no active transaction"
  | Doomed _ -> ()
  | Active ->
    Linetbl.add c.write_lines (line_of t addr) 0;
    Linetbl.add c.wbuf addr value

(* copy a table's keys into the scratch prefix and insertion-sort them;
   set sizes are tens of entries, where insertion sort beats anything
   allocating *)
let sorted_keys_into t tbl =
  let n = Linetbl.length tbl in
  if Array.length t.scratch < n then t.scratch <- Array.make (2 * n) 0;
  let a = t.scratch in
  for i = 0 to n - 1 do
    a.(i) <- Linetbl.key_of_order tbl i
  done;
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  n

let iter_read_lines t ~core f =
  let n = sorted_keys_into t t.cores.(core).read_set in
  for i = 0 to n - 1 do
    f t.scratch.(i)
  done

let iter_write_lines t ~core f =
  let n = sorted_keys_into t t.cores.(core).write_lines in
  for i = 0 to n - 1 do
    f t.scratch.(i)
  done

let iter_write_addrs t ~core f =
  let n = sorted_keys_into t t.cores.(core).wbuf in
  for i = 0 to n - 1 do
    f t.scratch.(i)
  done

let tx_commit t ~core =
  let c = t.cores.(core) in
  match c.st with
  | Idle -> invalid_arg "Stm.tx_commit: core has no active transaction"
  | Doomed _ -> false
  | Active ->
    if Htm.global_lock_held t.htm then begin
      doom t ~core Locksub;
      false
    end
    else begin
      (* the hardware tier keeps priority on lines it is speculatively
         writing: defer rather than publish over a buffered update *)
      let hw_owned =
        let n = Linetbl.length c.write_lines in
        let rec go i =
          i < n
          && (Htm.writers_present t.htm
                ~line:(Linetbl.key_of_order c.write_lines i)
              || go (i + 1))
        in
        go 0
      in
      if hw_owned then begin
        doom t ~core Hw_owned;
        false
      end
      else begin
        (* write lines can alias to one stripe; sort the stripe indexes
           into scratch and dedup in place to lock each one exactly once *)
        let n = Linetbl.length c.write_lines in
        if Array.length t.scratch < n then t.scratch <- Array.make (2 * n) 0;
        for i = 0 to n - 1 do
          t.scratch.(i) <- slot_of ~line:(Linetbl.key_of_order c.write_lines i)
        done;
        let a = t.scratch in
        for i = 1 to n - 1 do
          let x = a.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && a.(!j) > x do
            a.(!j + 1) <- a.(!j);
            decr j
          done;
          a.(!j + 1) <- x
        done;
        let nslots =
          let k = ref 0 in
          for i = 0 to n - 1 do
            if !k = 0 || a.(!k - 1) <> a.(i) then begin
              a.(!k) <- a.(i);
              incr k
            end
          done;
          !k
        in
        let own_slot line =
          let s = slot_of ~line in
          let rec go i = i < nslots && (a.(i) = s || go (i + 1)) in
          go 0
        in
        for i = 0 to nslots - 1 do
          let va = t.base + a.(i) in
          Memory.store t.memory va (Memory.load t.memory va lor 1)
        done;
        let valid =
          let rs = c.read_set in
          let rec go i =
            i >= Linetbl.length rs
            ||
            let line = Linetbl.key_of_order rs i in
            let recorded = Linetbl.value_of_order rs i in
            let w = Memory.load t.memory (version_addr t ~line) in
            let w = if own_slot line then w land lnot 1 else w in
            w = recorded && go (i + 1)
          in
          go 0
        in
        if not valid then begin
          for i = 0 to nslots - 1 do
            let va = t.base + a.(i) in
            Memory.store t.memory va (Memory.load t.memory va land lnot 1)
          done;
          doom t ~core Validation;
          false
        end
        else begin
          t.clock <- t.clock + 1;
          let wv = t.clock in
          for i = 0 to Linetbl.length c.wbuf - 1 do
            Htm.stm_publish t.htm ~core
              ~addr:(Linetbl.key_of_order c.wbuf i)
              ~value:(Linetbl.value_of_order c.wbuf i)
          done;
          for i = 0 to nslots - 1 do
            Memory.store t.memory (t.base + a.(i)) (2 * wv)
          done;
          discard c;
          c.st <- Idle;
          true
        end
      end
    end

let tx_self_abort t ~core =
  match t.cores.(core).st with
  | Active -> doom t ~core Explicit
  | Idle | Doomed _ -> invalid_arg "Stm.tx_self_abort: transaction not active"

let tx_cleanup t ~core =
  let c = t.cores.(core) in
  match c.st with
  | Doomed kind ->
    c.st <- Idle;
    kind
  | Idle | Active -> invalid_arg "Stm.tx_cleanup: transaction not doomed"

let last_set_sizes t ~core =
  let c = t.cores.(core) in
  (c.last_rset, c.last_wset)

(* a hardware publication (lazy commit or nontransactional store) landed
   on [line]: advance the clock and stamp the stripe so software readers
   serialized before the publication fail validation *)
let note_published t ~line =
  t.clock <- t.clock + 1;
  Memory.store t.memory (version_addr t ~line) (2 * t.clock)
