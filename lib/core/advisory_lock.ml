open Stx_htm

type t = {
  htm : Htm.t;
  base : int;
  n : int;
  words_per_line : int;
  contended : bool array; (* host-side bookkeeping, one flag per lock *)
  waiting : int array; (* current spinners per lock *)
}

let create ?(count = 256) htm alloc =
  let cfg = Htm.config htm in
  let wpl = cfg.Stx_machine.Config.words_per_line in
  (* one line per lock so waiters on different locks never interfere *)
  let base = Stx_machine.Alloc.alloc_shared alloc (count * wpl) in
  {
    htm;
    base;
    n = count;
    words_per_line = wpl;
    contended = Array.make count false;
    waiting = Array.make count 0;
  }

let count t = t.n

(* Fibonacci hashing of the cache-line index *)
let index_for t ~addr =
  let line = addr / t.words_per_line in
  let h = line * 0x9E3779B1 land max_int in
  h mod t.n

let lock_addr t i =
  if i < 0 || i >= t.n then invalid_arg "Advisory_lock.lock_addr: bad index";
  t.base + (i * t.words_per_line)

let try_acquire t ~core ~idx =
  let addr = lock_addr t idx in
  let ok = Htm.nt_cas t.htm ~core ~addr ~expected:0 ~desired:(core + 1) in
  if not ok then t.contended.(idx) <- true;
  ok

let release t ~core ~idx ~contended =
  let addr = lock_addr t idx in
  if Htm.nt_load t.htm ~addr <> core + 1 then
    invalid_arg "Advisory_lock.release: not the holder";
  contended := t.contended.(idx);
  t.contended.(idx) <- false;
  Htm.nt_store t.htm ~core ~addr ~value:0

let waiters t ~idx = t.waiting.(idx)
let add_waiter t ~idx = t.waiting.(idx) <- t.waiting.(idx) + 1
let remove_waiter t ~idx =
  let w = t.waiting.(idx) in
  if w > 0 then t.waiting.(idx) <- w - 1

let holder t ~idx =
  match Htm.nt_load t.htm ~addr:(lock_addr t idx) with
  | 0 -> None
  | v -> Some (v - 1)
