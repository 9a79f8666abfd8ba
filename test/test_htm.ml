open Stx_machine
open Stx_htm

let cfg = Config.with_cores 4 Config.default

let setup () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:cfg.Config.words_per_line mem in
  let htm = Htm.create cfg mem alloc in
  (mem, alloc, htm)

let test_commit_publishes () =
  let mem, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:7 ~pc:1;
  Alcotest.(check int) "not visible before commit" 0 (Memory.load mem 64);
  Alcotest.(check bool) "commit ok" true (Htm.tx_commit htm ~core:0);
  Alcotest.(check int) "visible after commit" 7 (Memory.load mem 64)

let test_tx_load_sees_own_writes () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:9 ~pc:1;
  Alcotest.(check int) "own write visible" 9 (Htm.tx_load htm ~core:0 ~addr:64 ~pc:2);
  ignore (Htm.tx_commit htm ~core:0)

let test_write_write_conflict () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:2;
  (* requester (core 1) wins *)
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict { conf_addr; _ }) ->
    Alcotest.(check int) "conflict addr" 64 conf_addr
  | _ -> Alcotest.fail "core 0 should be doomed");
  Alcotest.(check bool) "core 1 still active" true (Htm.status htm ~core:1 = Htm.Active);
  ignore (Htm.tx_cleanup htm ~core:0);
  Alcotest.(check bool) "winner commits" true (Htm.tx_commit htm ~core:1)

let test_read_write_conflict () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:5);
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:6;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "reader should be doomed by writer")

let test_write_read_conflict () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  ignore (Htm.tx_load htm ~core:1 ~addr:64 ~pc:2);
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "writer should be doomed by reader (requester wins)")

let test_read_read_no_conflict () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  ignore (Htm.tx_load htm ~core:1 ~addr:64 ~pc:2);
  Alcotest.(check bool) "both active" true
    (Htm.status htm ~core:0 = Htm.Active && Htm.status htm ~core:1 = Htm.Active);
  Alcotest.(check bool) "both commit" true
    (Htm.tx_commit htm ~core:0 && Htm.tx_commit htm ~core:1)

let test_line_granularity () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  (* addresses 64 and 65 share a cache line (8 words/line): false sharing *)
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_store htm ~core:1 ~addr:65 ~value:2 ~pc:2;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed _ -> ()
  | _ -> Alcotest.fail "same-line accesses must conflict");
  (* different lines do not conflict *)
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_store htm ~core:1 ~addr:72 ~value:2 ~pc:2;
  Alcotest.(check bool) "different lines fine" true (Htm.status htm ~core:0 = Htm.Active)

let test_conflicting_pc_tag () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:0x1ABC);
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:0x9999);
  (* second access must not overwrite the first-access tag *)
  Htm.tx_store htm ~core:1 ~addr:64 ~value:1 ~pc:7;
  match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict { conf_pc = Some pc; _ }) ->
    Alcotest.(check int) "full first-access pc" 0x1ABC pc
  | _ -> Alcotest.fail "expected conflict with pc tag"

let test_abort_discards_buffer () =
  let mem, _, htm = setup () in
  Memory.store mem 64 5;
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:99 ~pc:1;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:2;
  ignore (Htm.tx_cleanup htm ~core:0);
  Alcotest.(check int) "loser's write discarded" 5 (Memory.load mem 64);
  Alcotest.(check bool) "winner commits" true (Htm.tx_commit htm ~core:1);
  Alcotest.(check int) "winner's write applied" 2 (Memory.load mem 64)

let test_aborted_tx_stops_conflicting () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:2;
  (* core 0 is doomed; its stale sets must not doom core 2's accesses *)
  Htm.tx_begin htm ~core:2;
  Htm.tx_store htm ~core:2 ~addr:64 ~value:3 ~pc:3;
  (* core 1 was active and holding the line: it gets doomed by core 2 *)
  Alcotest.(check bool) "core2 active" true (Htm.status htm ~core:2 = Htm.Active);
  ignore (Htm.tx_cleanup htm ~core:0);
  ignore (Htm.tx_cleanup htm ~core:1);
  Alcotest.(check bool) "core2 commits" true (Htm.tx_commit htm ~core:2)

let test_nt_ops_bypass_isolation () =
  let mem, _, htm = setup () in
  Memory.store mem 128 42;
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  (* nt load inside core 0's tx sees committed memory, no read-set entry *)
  Alcotest.(check int) "nt load" 42 (Htm.nt_load htm ~addr:128);
  Alcotest.(check int) "read set only has line of 64" 1 (Htm.read_set_size htm ~core:0);
  (* another thread nt-stores to 128: core 0 unaffected *)
  Htm.nt_store htm ~core:1 ~addr:128 ~value:43;
  Alcotest.(check bool) "still active" true (Htm.status htm ~core:0 = Htm.Active);
  (* nt store to a transactionally-read line DOES abort *)
  Htm.nt_store htm ~core:1 ~addr:64 ~value:9;
  match Htm.status htm ~core:0 with
  | Htm.Doomed _ -> ()
  | _ -> Alcotest.fail "nt store to tx line must abort the tx"

let test_nt_store_in_own_tx_no_self_abort () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  Htm.nt_store htm ~core:0 ~addr:64 ~value:3;
  Alcotest.(check bool) "no self abort" true (Htm.status htm ~core:0 = Htm.Active)

let test_nt_cas () =
  let _, _, htm = setup () in
  Alcotest.(check bool) "cas 0->1" true
    (Htm.nt_cas htm ~core:0 ~addr:64 ~expected:0 ~desired:1);
  Alcotest.(check bool) "cas fails when stale" false
    (Htm.nt_cas htm ~core:1 ~addr:64 ~expected:0 ~desired:2);
  Alcotest.(check int) "value intact" 1 (Htm.nt_load htm ~addr:64)

let test_global_lock_subscription () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Alcotest.(check bool) "lock acquired" true (Htm.acquire_global_lock htm ~core:1);
  Alcotest.(check bool) "commit fails under lock" false (Htm.tx_commit htm ~core:0);
  (match Htm.status htm ~core:0 with
  | Htm.Doomed Htm.Lock_subscription -> ()
  | _ -> Alcotest.fail "expected lock-subscription abort");
  ignore (Htm.tx_cleanup htm ~core:0);
  Htm.release_global_lock htm;
  Alcotest.(check bool) "lock released" false (Htm.global_lock_held htm)

let test_irrevocable_store_aborts_txs () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  Alcotest.(check bool) "lock" true (Htm.acquire_global_lock htm ~core:1);
  (* irrevocable writer stomps the line core 0 read *)
  Htm.nt_store htm ~core:1 ~addr:64 ~value:5;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed _ -> ()
  | _ -> Alcotest.fail "irrevocable store must abort readers");
  Htm.release_global_lock htm

let test_explicit_abort () =
  let mem, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:9 ~pc:1;
  Htm.tx_self_abort htm ~core:0;
  (match Htm.tx_cleanup htm ~core:0 with
  | Htm.Explicit -> ()
  | _ -> Alcotest.fail "expected explicit reason");
  Alcotest.(check int) "write discarded" 0 (Memory.load mem 64)

let qcheck_serializability_two_txs =
  (* two single-location increments: with requester-wins, any interleaving
     where both commit must produce the serial result *)
  QCheck.Test.make ~name:"no lost update between two committing txs" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let mem, _, htm = setup () in
      Memory.store mem 64 0;
      (* tx0 reads, tx1 writes the same line, interleaved per (a, b) *)
      Htm.tx_begin htm ~core:0;
      Htm.tx_begin htm ~core:1;
      let v0 = Htm.tx_load htm ~core:0 ~addr:64 ~pc:1 in
      (if a mod 2 = 0 then
         match Htm.status htm ~core:1 with
         | Htm.Active -> Htm.tx_store htm ~core:1 ~addr:64 ~value:(b + 1) ~pc:2
         | _ -> ());
      let commit0 =
        match Htm.status htm ~core:0 with
        | Htm.Active ->
          Htm.tx_store htm ~core:0 ~addr:64 ~value:(v0 + 1) ~pc:3;
          (match Htm.status htm ~core:0 with
          | Htm.Active -> Htm.tx_commit htm ~core:0
          | _ -> false)
        | _ -> false
      in
      let commit1 =
        match Htm.status htm ~core:1 with
        | Htm.Active -> Htm.tx_commit htm ~core:1
        | _ -> false
      in
      (* at most one of two conflicting txs commits *)
      (not (commit0 && commit1)) || a mod 2 = 1)

(* --- lazy (commit-time, committer-wins) variant ------------------------- *)

let lazy_cfg = { (Config.with_cores 4 Config.default) with Config.lazy_htm = true }

let setup_lazy () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:lazy_cfg.Config.words_per_line mem in
  let htm = Htm.create lazy_cfg mem alloc in
  (mem, alloc, htm)

let test_lazy_no_doom_before_commit () =
  let _, _, htm = setup_lazy () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  Htm.tx_store htm ~core:1 ~addr:64 ~value:2 ~pc:2;
  (* in lazy mode conflicting accesses coexist until someone commits *)
  Alcotest.(check bool) "both alive" true
    (Htm.status htm ~core:0 = Htm.Active && Htm.status htm ~core:1 = Htm.Active)

let test_lazy_committer_wins () =
  let mem, _, htm = setup_lazy () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
  ignore (Htm.tx_load htm ~core:1 ~addr:64 ~pc:2);
  Alcotest.(check bool) "committer succeeds" true (Htm.tx_commit htm ~core:0);
  (match Htm.status htm ~core:1 with
  | Htm.Doomed (Htm.Conflict { conf_pc = Some pc; _ }) ->
    Alcotest.(check int) "victim's own first-access pc" 2 pc
  | _ -> Alcotest.fail "reader must be doomed at commit");
  ignore (Htm.tx_cleanup htm ~core:1);
  Alcotest.(check int) "committer's value" 1 (Memory.load mem 64)

let test_lazy_read_read_fine () =
  let _, _, htm = setup_lazy () in
  Htm.tx_begin htm ~core:0;
  Htm.tx_begin htm ~core:1;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  ignore (Htm.tx_load htm ~core:1 ~addr:64 ~pc:2);
  Alcotest.(check bool) "both commit" true
    (Htm.tx_commit htm ~core:0 && Htm.tx_commit htm ~core:1)

let test_lazy_nt_store_still_eager () =
  let _, _, htm = setup_lazy () in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  (* nontransactional stores are immediately visible, so they must doom
     conflicting transactions even under lazy detection *)
  Htm.nt_store htm ~core:1 ~addr:64 ~value:9;
  match Htm.status htm ~core:0 with
  | Htm.Doomed _ -> ()
  | _ -> Alcotest.fail "nt store must doom even in lazy mode"

(* --- last_set_sizes with pooled sets ----------------------------------
   The read/write Linetbls are reset (not reallocated) the moment a
   transaction commits or is doomed, so [last_set_sizes] is only correct
   if the sizes are captured before that reset — on every discard path,
   not just the plain conflict one. *)

let test_last_sizes_commit () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  ignore (Htm.tx_load htm ~core:0 ~addr:128 ~pc:2);
  Htm.tx_store htm ~core:0 ~addr:192 ~value:1 ~pc:3;
  Alcotest.(check bool) "commit ok" true (Htm.tx_commit htm ~core:0);
  Alcotest.(check (pair int int)) "sizes captured before the pooled reset"
    (2, 1)
    (Htm.last_set_sizes htm ~core:0);
  Alcotest.(check int) "live read set is reset" 0
    (Htm.read_set_size htm ~core:0)

let test_last_sizes_capacity () =
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:cfg.Config.words_per_line mem in
  let policy =
    Stx_policy.make
      ~capacity:(Stx_policy.Capacity.Bounded { read_lines = 2; write_lines = 2 })
      ()
  in
  let htm = Htm.create ~policy cfg mem alloc in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  ignore (Htm.tx_load htm ~core:0 ~addr:128 ~pc:2);
  ignore (Htm.tx_load htm ~core:0 ~addr:192 ~pc:3);
  (match Htm.status htm ~core:0 with
  | Htm.Doomed Htm.Capacity -> ()
  | _ -> Alcotest.fail "third line must blow the read budget");
  Alcotest.(check (pair int int))
    "footprint includes the line that did not fit" (3, 0)
    (Htm.last_set_sizes htm ~core:0)

let test_last_sizes_nt_store_doom () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  Htm.tx_store htm ~core:0 ~addr:128 ~value:5 ~pc:2;
  Htm.nt_store htm ~core:1 ~addr:64 ~value:9;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Conflict _) -> ()
  | _ -> Alcotest.fail "nt store must doom the reader");
  Alcotest.(check (pair int int)) "sizes survive the nt-store doom" (1, 1)
    (Htm.last_set_sizes htm ~core:0)

let test_last_sizes_stm_conflict () =
  let _, _, htm = setup () in
  Htm.tx_begin htm ~core:0;
  ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
  Htm.stm_publish htm ~core:1 ~addr:64 ~value:3;
  (match Htm.status htm ~core:0 with
  | Htm.Doomed (Htm.Stm_conflict _) -> ()
  | _ -> Alcotest.fail "stm publish must doom the hardware reader");
  Alcotest.(check (pair int int)) "sizes survive the stm doom" (1, 0)
    (Htm.last_set_sizes htm ~core:0)

(* --- the doom hook: one call per Active -> Doomed transition -----------
   Each case dooms one core by one cause and expects exactly one hook
   call, made after the core is Doomed with its sets discarded. The
   survivors then commit, and nt stores by core 3 to the case's lines
   must call nothing more, neither while the victim is Doomed nor once it
   is Idle. *)

let doom_case ?(lazy_htm = false) ?resolution ?capacity name scenario =
  let cfg = { cfg with Config.lazy_htm } in
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:cfg.Config.words_per_line mem in
  let htm = Htm.create ~policy:(Stx_policy.make ?resolution ?capacity ()) cfg mem alloc in
  let calls = ref [] in
  Htm.set_on_doom htm
    (Some
       (fun core ->
         let discarded =
           (match Htm.status htm ~core with Htm.Doomed _ -> true | _ -> false)
           && Htm.read_set_size htm ~core = 0
         in
         calls := (core, discarded) :: !calls));
  let victim = scenario htm in
  let expect what =
    Alcotest.(check (list (pair int bool))) (name ^ ": " ^ what) [ (victim, true) ] (List.rev !calls)
  in
  expect "one call";
  for core = 0 to 2 do
    if Htm.status htm ~core = Htm.Active && not (Htm.tx_commit htm ~core) then
      Alcotest.failf "%s: survivor %d failed to commit" name core
  done;
  let poke () = List.iter (fun addr -> Htm.nt_store htm ~core:3 ~addr ~value:0) [ 64; 128 ] in
  poke ();
  expect "no call for a doomed core";
  ignore (Htm.tx_cleanup htm ~core:victim);
  poke ();
  expect "no call for an idle core"

let test_doom_hook_contract () =
  let open Stx_policy in
  (* core 0 reads the line core 1 then writes *)
  let read_then_write htm =
    Htm.tx_begin htm ~core:0;
    Htm.tx_begin htm ~core:1;
    ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1);
    Htm.tx_store htm ~core:1 ~addr:64 ~value:1 ~pc:2
  in
  let begin_reading htm =
    Htm.tx_begin htm ~core:0;
    ignore (Htm.tx_load htm ~core:0 ~addr:64 ~pc:1)
  in
  doom_case "requester-wins victim" (fun htm ->
      read_then_write htm;
      0);
  doom_case ~resolution:Resolution.Responder_wins "responder-wins requester" (fun htm ->
      read_then_write htm;
      1);
  doom_case ~resolution:Resolution.Timestamp "timestamp: younger requester" (fun htm ->
      read_then_write htm;
      1);
  doom_case "nt store" (fun htm ->
      begin_reading htm;
      Htm.nt_store htm ~core:1 ~addr:64 ~value:2;
      0);
  doom_case ~lazy_htm:true "lazy commit victim" (fun htm ->
      Htm.tx_begin htm ~core:0;
      Htm.tx_begin htm ~core:1;
      Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
      ignore (Htm.tx_load htm ~core:1 ~addr:64 ~pc:2);
      ignore (Htm.tx_commit htm ~core:0);
      1);
  doom_case ~lazy_htm:true ~resolution:Resolution.Responder_wins "lazy committer loses"
    (fun htm ->
      Htm.tx_begin htm ~core:0;
      Htm.tx_begin htm ~core:1;
      Htm.tx_store htm ~core:0 ~addr:64 ~value:1 ~pc:1;
      ignore (Htm.tx_load htm ~core:1 ~addr:64 ~pc:2);
      ignore (Htm.tx_commit htm ~core:0);
      0);
  doom_case ~capacity:(Capacity.Bounded { read_lines = 1; write_lines = 1 }) "capacity"
    (fun htm ->
      begin_reading htm;
      ignore (Htm.tx_load htm ~core:0 ~addr:128 ~pc:2);
      0);
  doom_case "explicit abort" (fun htm ->
      begin_reading htm;
      Htm.tx_self_abort htm ~core:0;
      0);
  doom_case "lock subscription" (fun htm ->
      begin_reading htm;
      ignore (Htm.acquire_global_lock htm ~core:1);
      ignore (Htm.tx_commit htm ~core:0);
      0);
  doom_case "stm_publish" (fun htm ->
      begin_reading htm;
      Htm.stm_publish htm ~core:1 ~addr:64 ~value:3;
      0)

(* --- model check: one core's sets against plain hash sets ----------------
   Core 0 runs one transaction of random loads and stores over six lines
   (addresses 64-111, 8 words a line) under a random capacity budget; a
   reference keeps the read set, the write set in first-write order, the
   first-access PC of each line and the write buffer in Hashtbls. Every
   load's value, the live read-set size and [writers_present] are compared
   after each op; the attempt then ends in one of: a capacity doom, an nt
   store by core 1 to one line (which must doom core 0 with that line's
   first-access PC exactly when the line is in a set), or a commit (which
   must publish the write set in first-write order). *)

let qcheck_sets_model =
  QCheck.Test.make ~name:"sets: agree with hash-set reference" ~count:500
    QCheck.(
      triple
        (pair (int_range 0 6) (int_range 0 6))
        (list_of_size Gen.(int_range 0 40) (triple bool (int_range 0 47) (int_range 0 15)))
        (int_range 0 6))
    (fun ((rb, wb), ops, ending) ->
      let mem = Memory.create () in
      let alloc = Alloc.create ~words_per_line:cfg.Config.words_per_line mem in
      let capacity, rbudget, wbudget =
        if rb = 0 || wb = 0 then (Stx_policy.Capacity.Unbounded, max_int, max_int)
        else (Stx_policy.Capacity.Bounded { read_lines = rb; write_lines = wb }, rb, wb)
      in
      let htm = Htm.create ~policy:(Stx_policy.make ~capacity ()) cfg mem alloc in
      for a = 64 to 111 do
        Memory.store mem a ((3 * a) + 1)
      done;
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let rset = Hashtbl.create 8 and wset = Hashtbl.create 8 and worder = ref [] in
      let tags = Hashtbl.create 8 and wbuf = Hashtbl.create 8 in
      let doomed = ref None in
      let tag line pc = if not (Hashtbl.mem tags line) then Hashtbl.replace tags line pc in
      let through addr =
        match Hashtbl.find_opt wbuf addr with Some v -> v | None -> Memory.load mem addr
      in
      let sizes () = (Hashtbl.length rset, Hashtbl.length wset) in
      Htm.tx_begin htm ~core:0;
      List.iteri
        (fun i (store, off, pc) ->
          if !doomed = None then begin
            let addr = 64 + off in
            let line = addr / 8 in
            if store then begin
              let value = 1000 + i in
              Htm.tx_store htm ~core:0 ~addr ~value ~pc;
              if Hashtbl.mem wset line then begin
                tag line pc;
                Hashtbl.replace wbuf addr value
              end
              else if Hashtbl.length wset >= wbudget then begin
                let r, w = sizes () in
                doomed := Some (r, w + 1)
              end
              else begin
                tag line pc;
                Hashtbl.replace wset line ();
                worder := line :: !worder;
                Hashtbl.replace wbuf addr value
              end
            end
            else begin
              let got = Htm.tx_load htm ~core:0 ~addr ~pc in
              let want =
                if Hashtbl.mem rset line then (tag line pc; through addr)
                else if Hashtbl.length rset >= rbudget then begin
                  let r, w = sizes () in
                  doomed := Some (r + 1, w);
                  Memory.load mem addr
                end
                else begin
                  tag line pc;
                  Hashtbl.replace rset line ();
                  through addr
                end
              in
              if got <> want then fail "op %d: load of %d read %d, want %d" i addr got want
            end;
            match (Htm.status htm ~core:0, !doomed) with
            | Htm.Active, None ->
              if Htm.read_set_size htm ~core:0 <> Hashtbl.length rset then
                fail "op %d: read set %d lines, want %d" i (Htm.read_set_size htm ~core:0)
                  (Hashtbl.length rset);
              for l = 8 to 13 do
                if Htm.writers_present htm ~line:l <> Hashtbl.mem wset l then
                  fail "op %d: line %d written is %b" i l (Hashtbl.mem wset l)
              done
            | Htm.Doomed Htm.Capacity, Some _ -> ()
            | _ -> fail "op %d: status disagrees with the capacity budget" i
          end)
        ops;
      let check_sizes what want =
        if Htm.last_set_sizes htm ~core:0 <> want then
          fail "%s: last_set_sizes (%d, %d), want (%d, %d)" what
            (fst (Htm.last_set_sizes htm ~core:0))
            (snd (Htm.last_set_sizes htm ~core:0))
            (fst want) (snd want)
      in
      let commit () =
        let published = ref [] in
        Htm.set_on_publish htm (Some (fun ~line -> published := line :: !published));
        if not (Htm.tx_commit htm ~core:0) then fail "commit refused";
        if !published <> !worder then fail "write set published out of first-write order";
        check_sizes "commit" (sizes ());
        Hashtbl.iter
          (fun addr v -> if Memory.load mem addr <> v then fail "word %d not published" addr)
          wbuf
      in
      (match !doomed with
      | Some want ->
        check_sizes "capacity doom" want;
        if Htm.tx_cleanup htm ~core:0 <> Htm.Capacity then fail "not a capacity abort"
      | None when ending < 6 ->
        let line = 8 + ending in
        Htm.nt_store htm ~core:1 ~addr:(line * 8) ~value:7;
        if Hashtbl.mem rset line || Hashtbl.mem wset line then begin
          (match Htm.status htm ~core:0 with
          | Htm.Doomed (Htm.Conflict { conf_addr; conf_pc; aggressor = 1 })
            when conf_addr = line * 8 ->
            if conf_pc <> Hashtbl.find_opt tags line then
              fail "line %d: conflicting PC is not the first access's" line
          | _ -> fail "nt store to line %d must doom the holder" line);
          check_sizes "conflict doom" (sizes ())
        end
        else if Htm.status htm ~core:0 <> Htm.Active then
          fail "nt store to untouched line %d doomed core 0" line
        else commit ()
      | None -> commit ());
      true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "commit publishes" `Quick test_commit_publishes;
    Alcotest.test_case "tx load sees own writes" `Quick test_tx_load_sees_own_writes;
    Alcotest.test_case "write-write conflict, requester wins" `Quick
      test_write_write_conflict;
    Alcotest.test_case "read-write conflict" `Quick test_read_write_conflict;
    Alcotest.test_case "write-read conflict" `Quick test_write_read_conflict;
    Alcotest.test_case "read-read no conflict" `Quick test_read_read_no_conflict;
    Alcotest.test_case "line granularity" `Quick test_line_granularity;
    Alcotest.test_case "conflicting PC tag (first access, truncated)" `Quick
      test_conflicting_pc_tag;
    Alcotest.test_case "abort discards write buffer" `Quick test_abort_discards_buffer;
    Alcotest.test_case "doomed tx stops conflicting" `Quick
      test_aborted_tx_stops_conflicting;
    Alcotest.test_case "nt ops bypass isolation" `Quick test_nt_ops_bypass_isolation;
    Alcotest.test_case "nt store no self-abort" `Quick test_nt_store_in_own_tx_no_self_abort;
    Alcotest.test_case "nt cas" `Quick test_nt_cas;
    Alcotest.test_case "global lock subscription" `Quick test_global_lock_subscription;
    Alcotest.test_case "irrevocable store aborts txs" `Quick
      test_irrevocable_store_aborts_txs;
    Alcotest.test_case "explicit abort" `Quick test_explicit_abort;
    Alcotest.test_case "lazy: no doom before commit" `Quick
      test_lazy_no_doom_before_commit;
    Alcotest.test_case "lazy: committer wins" `Quick test_lazy_committer_wins;
    Alcotest.test_case "lazy: read-read fine" `Quick test_lazy_read_read_fine;
    Alcotest.test_case "lazy: nt store still eager" `Quick
      test_lazy_nt_store_still_eager;
    Alcotest.test_case "last_set_sizes: commit path" `Quick
      test_last_sizes_commit;
    Alcotest.test_case "last_set_sizes: capacity doom" `Quick
      test_last_sizes_capacity;
    Alcotest.test_case "last_set_sizes: nt-store doom" `Quick
      test_last_sizes_nt_store_doom;
    Alcotest.test_case "last_set_sizes: stm-publish doom" `Quick
      test_last_sizes_stm_conflict;
    q qcheck_serializability_two_txs;
    q qcheck_sets_model;
    Alcotest.test_case "doom hook: one call per transition, every cause" `Quick
      test_doom_hook_contract;
  ]
