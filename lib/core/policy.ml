open Stx_compiler

type params = {
  pc_thr : int;
  addr_thr : int;
  prom_thr : int;
  probe_period : int;
  skip_read_only : bool;
  lock_timeout : int;
  max_waiters : int;
}

let default_params =
  {
    pc_thr = 2;
    addr_thr = 2;
    prom_thr = 5;
    probe_period = 8;
    skip_read_only = true;
    lock_timeout = 100_000;
    max_waiters = 2;
  }

type decision = Precise | Coarse | Promoted | Training

let resolve_anchor table ~conf_pc =
  match conf_pc with
  | None -> None
  | Some pc -> (
    match Unified.search_by_truncated_pc table pc with
    | None -> None
    | Some e -> Unified.anchor_of table e)

let site_of (e : Unified.entry) = Option.value ~default:Abcontext.no_site e.Unified.ue_site

let activate params (ctx : Abcontext.t) ~anchor ~conf_addr ~line ~retries =
  let decision =
    match anchor with
    | None ->
      Abcontext.disarm ctx;
      Training
    | Some en ->
      let a = Abcontext.count_addr ctx line > params.addr_thr in
      (* anchors are counted by instruction identity: context-sensitive
         clones of one instruction are the same PC to the hardware *)
      let p = Abcontext.count_anchor ctx en.Unified.ue_iid > params.pc_thr in
      let anchor_id = en.Unified.ue_iid in
      if p && a then begin
        (* case 1: precise mode *)
        Abcontext.arm ctx ~anchor:anchor_id ~site:(site_of en) ~block_addr:conf_addr ();
        Precise
      end
      else if p then
        if retries < params.prom_thr then begin
          (* case 2: coarse grain — wild-card address *)
          Abcontext.arm ctx ~anchor:anchor_id ~site:(site_of en) ~block_addr:0 ();
          Coarse
        end
        else begin
          (* case 3: locking promotion — move to the parent anchor *)
          match Unified.parent_of ctx.Abcontext.table en with
          | Some parent ->
            Abcontext.arm ctx ~anchor:anchor_id ~site:(site_of parent) ~block_addr:0 ();
            Promoted
          | None ->
            Abcontext.arm ctx ~anchor:anchor_id ~site:(site_of en) ~block_addr:0 ();
            Coarse
        end
      else begin
        (* case 4: training mode *)
        Abcontext.disarm ctx;
        Training
      end
  in
  Abcontext.append ctx
    (Some
       {
         Abcontext.r_anchor = Option.map (fun e -> e.Unified.ue_iid) anchor;
         Abcontext.r_addr = Some line;
       });
  decision

(* A commit that held an uncontended lock appends an empty record, shifting
   the abort evidence out of the history; once the armed anchor no longer
   has threshold support, the ALP deactivates — "avoiding over-locking in
   the case of low contention" (§5.2). Contention returning re-arms it
   within a few aborts. *)
(* a speculation probe that commits ran conflict-free without the lock;
   two in a row deactivate the ALP outright (an abort resets the streak
   and, within a few occurrences, re-arms) *)
let on_probe_commit (ctx : Abcontext.t) =
  ctx.Abcontext.probe_streak <- ctx.Abcontext.probe_streak + 1;
  if ctx.Abcontext.probe_streak >= 2 then begin
    ctx.Abcontext.probe_streak <- 0;
    Abcontext.disarm ctx;
    Abcontext.clear_history ctx
  end

let on_commit_uncontended_lock params (ctx : Abcontext.t) =
  Abcontext.append ctx None;
  let supported =
    match ctx.Abcontext.armed_anchor with
    | Some ue -> Abcontext.count_anchor ctx ue > params.pc_thr
    | None -> (
      match ctx.Abcontext.armed_line with
      | Some line -> Abcontext.count_addr ctx line > params.addr_thr
      | None -> false)
  in
  if not supported then begin
    Abcontext.disarm ctx;
    (* drop the stale abort records too: re-arming should take a fresh
       burst of contention, not one more abort on top of old evidence *)
    Abcontext.clear_history ctx
  end

(* whole-transaction scheduling: arm on abort density alone (any conflict
   pattern), always at the very top of the atomic block, wildcard address *)
let activate_tx_sched params (ctx : Abcontext.t) ~line =
  if Abcontext.abort_density ctx >= params.pc_thr then
    Abcontext.arm ctx ~site:Abcontext.entry_site ~block_addr:0 ()
  else Abcontext.disarm ctx;
  Abcontext.append ctx (Some { Abcontext.r_anchor = None; Abcontext.r_addr = Some line })

let activate_addr_only params (ctx : Abcontext.t) ~conf_addr ~line =
  if Abcontext.count_addr ctx line > params.addr_thr then
    Abcontext.arm ctx ~line ~site:Abcontext.entry_site ~block_addr:conf_addr ()
  else Abcontext.disarm ctx;
  Abcontext.append ctx (Some { Abcontext.r_anchor = None; Abcontext.r_addr = Some line })
