open Stx_compiler

let no_site = 0
let entry_site = -1

type record = { r_anchor : int option; r_addr : int option }

type t = {
  ab : int;
  table : Unified.table;
  mutable armed_site : int;
  mutable armed_anchor : int option;
  mutable armed_line : int option;
  mutable active_site : int;
  mutable block_addr : int;
  history : record option array;
  mutable hist_len : int;
  mutable hist_pos : int;
  mutable tx_counter : int;
  mutable probe_streak : int; (* consecutive successful speculation probes *)
}

(* abort records kept, as in the paper *)
let history_size = 8

let create ~ab table =
  {
    ab;
    table;
    armed_site = no_site;
    armed_anchor = None;
    armed_line = None;
    active_site = no_site;
    block_addr = 0;
    history = Array.make history_size None;
    hist_len = 0;
    hist_pos = 0;
    tx_counter = 0;
    probe_streak = 0;
  }

let arm t ?anchor ?line ~site ~block_addr () =
  t.armed_site <- site;
  t.armed_anchor <- anchor;
  t.armed_line <- line;
  t.active_site <- site;
  t.block_addr <- block_addr

let disarm t =
  t.armed_site <- no_site;
  t.armed_anchor <- None;
  t.armed_line <- None;
  t.active_site <- no_site;
  t.block_addr <- 0

let clear_history t =
  Array.fill t.history 0 (Array.length t.history) None;
  t.hist_len <- 0;
  t.hist_pos <- 0

let on_tx_begin t = t.active_site <- t.armed_site

let probe_due t ~period =
  t.tx_counter <- t.tx_counter + 1;
  period > 0 && t.armed_site <> no_site && t.tx_counter mod period = 0

let append t r =
  t.history.(t.hist_pos) <- r;
  t.hist_pos <- (t.hist_pos + 1) mod Array.length t.history;
  if t.hist_len < Array.length t.history then t.hist_len <- t.hist_len + 1

let count t f =
  Array.fold_left
    (fun acc slot -> match slot with Some r when f r -> acc + 1 | _ -> acc)
    0 t.history

(* option [=] is a polymorphic compare (caml_equal) without flambda;
   match the int out *)
let count_addr t line =
  count t (fun r -> match r.r_addr with Some l -> l = line | None -> false)

let abort_density t = count t (fun r -> match r.r_addr with Some _ -> true | None -> false)

let count_anchor t ue =
  count t (fun r -> match r.r_anchor with Some a -> a = ue | None -> false)

let consume_active t ~site =
  if t.active_site <> no_site && t.active_site = site then begin
    t.active_site <- no_site;
    true
  end
  else false

let address_matched t ~words_per_line ~addr =
  t.block_addr = 0 || t.block_addr / words_per_line = addr / words_per_line
