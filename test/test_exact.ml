open Stx_core
open Stx_machine
open Stx_sim
module Serve = Stx_serve.Serve

(* Exactness golden for the scheduler. The event loop may run
   thread-local ops ahead and rewind them on a doom, and may park
   global-lock waiters until the lock is released, but none of that may
   move a simulated outcome: every digest below was captured from the
   one-step-per-instruction loop. Each digest covers one workload x mode
   group: every resolution x fallback x capacity x lazy/eager x cores
   cell of the group, fingerprinted over every [Stats] field, so a
   failure names the group to bisect. Two serving runs cover the
   injector path at 16 and 128 cores, each pinned by its rendered report
   and by its metrics registry, and the Figure 7 suite's cells pin the
   metrics registry beside the stats. *)

let fingerprint (s : Stats.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string b (str ^ "\n")) fmt in
  List.iter
    (fun (name, v) -> line "%s %d" name v)
    [
      ("threads", s.Stats.threads);
      ("commits", s.Stats.commits);
      ("aborts", s.Stats.aborts);
      ("conflict_aborts", s.Stats.conflict_aborts);
      ("lock_sub_aborts", s.Stats.lock_sub_aborts);
      ("explicit_aborts", s.Stats.explicit_aborts);
      ("capacity_aborts", s.Stats.capacity_aborts);
      ("stm_conflict_aborts", s.Stats.stm_conflict_aborts);
      ("stm_commits", s.Stats.stm_commits);
      ("stm_aborts", s.Stats.stm_aborts);
      ("stm_validation_aborts", s.Stats.stm_validation_aborts);
      ("stm_hw_owned_aborts", s.Stats.stm_hw_owned_aborts);
      ("stm_locksub_aborts", s.Stats.stm_locksub_aborts);
      ("stm_validation_cycles", s.Stats.stm_validation_cycles);
      ("irrevocable_entries", s.Stats.irrevocable_entries);
      ("useful_cycles", s.Stats.useful_cycles);
      ("wasted_cycles", s.Stats.wasted_cycles);
      ("tx_mode_cycles", s.Stats.tx_mode_cycles);
      ("lock_wait_cycles", s.Stats.lock_wait_cycles);
      ("backoff_cycles", s.Stats.backoff_cycles);
      ("total_cycles", s.Stats.total_cycles);
      ("thread_cycles", s.Stats.thread_cycles);
      ("lock_acquires", s.Stats.lock_acquires);
      ("lock_timeouts", s.Stats.lock_timeouts);
      ("alps_executed", s.Stats.alps_executed);
      ("alps_lock_attempts", s.Stats.alps_lock_attempts);
      ("accuracy_hits", s.Stats.accuracy_hits);
      ("accuracy_total", s.Stats.accuracy_total);
      ("precise", s.Stats.precise);
      ("coarse", s.Stats.coarse);
      ("promoted", s.Stats.promoted);
      ("training", s.Stats.training);
      ("insts", s.Stats.insts);
      ("tx_insts", s.Stats.tx_insts);
      ("committed_tx_insts", s.Stats.committed_tx_insts);
    ];
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let freq name tbl =
    let entries = sorted tbl in
    line "%s %d" name (List.length entries);
    List.iter (fun ((k : int), v) -> line "%d %d" k v) entries
  in
  freq "conf_addr" s.Stats.conf_addr_freq;
  freq "conf_pc" s.Stats.conf_pc_freq;
  let abs = sorted s.Stats.per_ab in
  line "per_ab %d" (List.length abs);
  List.iter
    (fun ((id : int), (a : Stats.ab_stat)) ->
      line "%d %d %d %d %d" id a.Stats.ab_commits a.Stats.ab_aborts a.Stats.ab_locks
        a.Stats.ab_irrevocable)
    abs;
  let pols = sorted s.Stats.per_policy in
  line "per_policy %d" (List.length pols);
  List.iter
    (fun ((label : string), (p : Stats.pol_stat)) ->
      line "%s %d %d %d %d" label p.Stats.p_commits p.Stats.p_aborts p.Stats.p_capacity
        p.Stats.p_irrevocable)
    pols;
  Buffer.contents b

let seed = 7
let scale = 0.05

let fallback s = Result.get_ok (Stx_policy.Fallback.of_string s)

(* lock = the default retry-then-global-lock schedule *)
let fallbacks = List.map fallback [ "polite"; "backoff"; "htm-stm-lock" ]

let capacities =
  [
    Stx_policy.Capacity.Unbounded;
    Stx_policy.Capacity.Bounded { read_lines = 6; write_lines = 3 };
  ]

let group_digest w mode =
  let spec = Stx_workloads.Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
  let b = Buffer.create 65536 in
  List.iter
    (fun resolution ->
      List.iter
        (fun fallback ->
          List.iter
            (fun capacity ->
              List.iter
                (fun lazy_htm ->
                  List.iter
                    (fun cores ->
                      let cfg = { (Config.with_cores cores Config.default) with Config.lazy_htm } in
                      let htm_policy = Stx_policy.make ~resolution ~capacity ~fallback () in
                      Buffer.add_string b
                        (fingerprint (Machine.run ~seed ~htm_policy ~cfg ~mode spec)))
                    [ 4; 16 ])
                [ false; true ])
            capacities)
        fallbacks)
    Stx_policy.Resolution.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Fixed arrivals and uniform keys keep libm out of the request stream,
   so the digest does not depend on the platform's [log]/[pow]. A small
   key range at a high rate contends hard enough to send requests to the
   global lock. *)
let serve_run ~threads ~shard_by ~rate ~horizon =
  let service = Option.get (Stx_workloads.Registry.find_service "memcached") in
  let cfg =
    Serve.config ~mode:Mode.Staggered_hw ~threads ~seed ~keys:Stx_serve.Keys.Uniform
      ~pct_get:50 ~key_range:32 ~horizon ~shards:2 ~shard_by
      ~arrival:(Stx_serve.Arrival.Fixed { rate })
      service
  in
  (cfg, Serve.run ~jobs:1 cfg)

let serve_digest (cfg, r) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "requests %d\nmakespan %d\n%s%s" r.Serve.requests r.Serve.makespan
          (fingerprint r.Serve.stats) (Serve.render cfg r)))

(* The merged registry a served run returns: each shard's exported
   collector series (its counters written from the shard's [Stats]),
   every block's phase split and the serving plane's [stx_req_*] series,
   per-core busy cycles included, none of which [Serve.render] prints. *)
let serve_registry_digest (_, r) =
  Digest.to_hex (Digest.string (Stx_metrics.Registry.to_json_string r.Serve.registry))

(* captured from the one-step-per-instruction loop at seed 7; key is
   (workload, Mode.to_string) *)
let golden_groups =
  [
    (("genome", "HTM"), "bc7a20060511b57fc264c59bb0cd79a1");
    (("genome", "AddrOnly"), "d6642440b581e8049a11d0c06a409dfd");
    (("genome", "TxSched"), "8a4d92c6b7a93bfca9fef7f1f92efa6c");
    (("genome", "Staggered+SW"), "ffeff9ef8137b39b568dccbad24dc4fe");
    (("genome", "Staggered"), "0eaf8f84f4f4a56425f6ad26768e5e4c");
    (("intruder", "HTM"), "a6458d05f3ab0d80579ddb2fa1449492");
    (("intruder", "AddrOnly"), "2cba8f22e9e5b53dab7b31520ef4d465");
    (("intruder", "TxSched"), "b23ae68b90c380dd80c19819b9d5bc9a");
    (("intruder", "Staggered+SW"), "7d011412a5c8c4a123173bf197fca0dc");
    (("intruder", "Staggered"), "66d505298e571b567cd98ee4dd2a9020");
    (("kmeans", "HTM"), "6745ec6b14925a687d05840f72d666aa");
    (("kmeans", "AddrOnly"), "7a3ae356813811083729425639750b6f");
    (("kmeans", "TxSched"), "c58ff436a0f163bd85684ad3ffe747e3");
    (("kmeans", "Staggered+SW"), "cc0849da231e11a28f4a6c45214569ae");
    (("kmeans", "Staggered"), "5f1c832c190917e297e1bc515620d9d6");
    (("labyrinth", "HTM"), "05e3d1fb433ced1b2f88a05d139169f4");
    (("labyrinth", "AddrOnly"), "ce7bf75f43f9edf6a2e223bcbb146121");
    (("labyrinth", "TxSched"), "f4cc8931ee63d6e726d5b6581b7046b7");
    (("labyrinth", "Staggered+SW"), "70e6b09306f7c86eb053605d6001f35d");
    (("labyrinth", "Staggered"), "960f0cebbac7274e85b7318fc37853e1");
    (("ssca2", "HTM"), "3da9cc1d3b35f434420458e9dc0cfb49");
    (("ssca2", "AddrOnly"), "3da9cc1d3b35f434420458e9dc0cfb49");
    (("ssca2", "TxSched"), "4278fff9423f246bc6b713879c2a5b00");
    (("ssca2", "Staggered+SW"), "f6c190c3e13c4ec62ecbcb4209622808");
    (("ssca2", "Staggered"), "b0806d0593bc8281dab6a2b954bff19b");
    (("vacation", "HTM"), "7fedbfabcb295da90d5710648c1f43ed");
    (("vacation", "AddrOnly"), "21b06dd07dfcbded32b9c0743378f9e5");
    (("vacation", "TxSched"), "63dcfbcf460d3d23a1c5f59e3b651a38");
    (("vacation", "Staggered+SW"), "694f8f0c2b4e8b2621ce343f044c151d");
    (("vacation", "Staggered"), "454352c943e2b87c01cfddaccb449969");
    (("list-lo", "HTM"), "f24d8c305ecce9016d57b8ace82578c7");
    (("list-lo", "AddrOnly"), "7a7d0f608122f4ed774b4ad84eccb451");
    (("list-lo", "TxSched"), "8b5328dc1f24617812a71055897f25bb");
    (("list-lo", "Staggered+SW"), "3d48eb258aedc7db9d40f887a78cb864");
    (("list-lo", "Staggered"), "883a8159a8235187581222566c5a954c");
    (("list-hi", "HTM"), "4b7d32ba0e7d4c73be55b2dfb4489b3d");
    (("list-hi", "AddrOnly"), "33097477b35902c9539897a88762a273");
    (("list-hi", "TxSched"), "3d66c3ea8d10df4b6ce1ad980fc7fb90");
    (("list-hi", "Staggered+SW"), "efe2ef62d4e0819f5eff22cef62ce917");
    (("list-hi", "Staggered"), "be4c26c9679c2ec71329db2ef55baaf7");
    (("tsp", "HTM"), "9badd1611d68f2978d4507cf87278356");
    (("tsp", "AddrOnly"), "a6271acffbe3f5136de44760c6be61ce");
    (("tsp", "TxSched"), "b334230b8047c9302e64c2ee07cf3ad6");
    (("tsp", "Staggered+SW"), "d18d1897392daf5ea4887a9d224668ef");
    (("tsp", "Staggered"), "be207af77ce5a6ca680881744b09cbb5");
    (("memcached", "HTM"), "0f3a2a006f25d44648e1568c1d69ce60");
    (("memcached", "AddrOnly"), "9469dbfe5cd66f1c94ac7ba887e4ee31");
    (("memcached", "TxSched"), "bff22ff68185079427642dc0ef19eee7");
    (("memcached", "Staggered+SW"), "53e1584addc248bcf3328ee188f08fb8");
    (("memcached", "Staggered"), "c202c1e41f7d910e488eda0faf9318a2");
  ]

let golden_serve =
  [
    ("16-core seed-sharded", "80ebd49abe0f817e4eab80e441e3a59b");
    ("128-core key-sharded", "3fcd4b391884ccc900b85a3c063d97ff");
  ]

(* captured from keyed registry writes; the collector's and the serving
   plane's handles must reproduce them byte for byte *)
let golden_serve_registry =
  [
    ("16-core seed-sharded", "984e4fa51de20193fd94a8742ddfe28e");
    ("128-core key-sharded", "3bebcc9082a93cfe3ccb0e5fd109a6ae");
  ]

(* The Figure 7 suite's cells: every workload x {HTM, AddrOnly,
   Staggered+SW, Staggered} at seed 3, scale 0.05, 4 threads under the
   default policy bundle, one digest per workload. Each cell contributes
   its [Stats] fingerprint and the metrics registry collected from the
   same run, so throughput, abort rate, the commit-latency quantiles and
   the per-block prefix/suffix phase split are all pinned exactly. *)
let suite_modes = [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ]

let suite_digest w =
  let cfg = Config.with_cores 4 Config.default in
  let b = Buffer.create 65536 in
  List.iter
    (fun mode ->
      let spec = Stx_workloads.Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
      let c = Stx_metrics.Collect.create () in
      let s =
        Machine.run ~seed:3 ~cfg ~mode ~on_event:(Stx_metrics.Collect.handler c) spec
      in
      Buffer.add_string b (fingerprint s);
      Buffer.add_string b (Stx_metrics.Registry.to_json_string (Stx_metrics.Collect.export c s)))
    suite_modes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* captured at seed 3 from the cells that an earlier bench gate held
   only to +/-20%; key is the workload name *)
let golden_suite =
  [
    ("genome", "00a8a43b988b5b0c16f50bd77be4a222");
    ("intruder", "9ac1e4080ff1fceb160114eb8e2cb7dc");
    ("kmeans", "7cd86afe6973dd333d3edf8783257fa0");
    ("labyrinth", "a6f080cbf117d33a01a6b179134669c9");
    ("ssca2", "4b983e7943f37b5c1f37717b57c6d56d");
    ("vacation", "68146c33e29bcdcc9453052adcf866aa");
    ("list-lo", "dd484ca95f9be360aa71a6c4803d5b04");
    ("list-hi", "99c88f500a242ef8a60e602a75deb119");
    ("tsp", "b54c1c0e3a29831137d7fb5a683bb53d");
    ("memcached", "33462226db247bb5bbee44e8df65f984");
  ]

let test_suite w () =
  let name = w.Stx_workloads.Workload.name in
  match List.assoc_opt name golden_suite with
  | None -> Alcotest.failf "no golden suite digest for %s" name
  | Some expected -> Alcotest.(check string) name expected (suite_digest w)

let test_group w mode () =
  let name = w.Stx_workloads.Workload.name in
  let key = (name, Mode.to_string mode) in
  match List.assoc_opt key golden_groups with
  | None -> Alcotest.failf "no golden digest for %s/%s" name (Mode.to_string mode)
  | Some expected ->
    Alcotest.(check string)
      (Printf.sprintf "%s/%s" name (Mode.to_string mode))
      expected (group_digest w mode)

(* label, then cores per shard, sharding, offered req/kcycle and horizon;
   both goldens of a cell read its one run *)
let serve_cells =
  List.map
    (fun (label, threads, shard_by, rate, horizon) ->
      (label, lazy (serve_run ~threads ~shard_by ~rate ~horizon)))
    [
      ("16-core seed-sharded", 16, Serve.Seed, 20., 50_000);
      ("128-core key-sharded", 128, Serve.Key, 40., 50_000);
    ]

let test_serve golden digest (label, run) () =
  match List.assoc_opt label golden with
  | None -> Alcotest.failf "no golden digest for %s" label
  | Some expected -> Alcotest.(check string) label expected (digest (Lazy.force run))

(* every shard's event stream passes the online checker, request
   brackets included, as well as the metrics check *)
let test_serve_clean (label, run) () =
  let _, r = Lazy.force run in
  Alcotest.(check (list string)) label [] r.Serve.errors

let suite =
  List.concat_map
    (fun w ->
      List.map
        (fun mode ->
          Alcotest.test_case
            (Printf.sprintf "golden %s/%s" w.Stx_workloads.Workload.name (Mode.to_string mode))
            `Quick (test_group w mode))
        Mode.all)
    Stx_workloads.Registry.all
  @ List.map
      (fun w ->
        Alcotest.test_case
          ("golden fig7 cells " ^ w.Stx_workloads.Workload.name)
          `Quick (test_suite w))
      Stx_workloads.Registry.all
  @ List.map
      (fun ((label, _) as c) ->
        Alcotest.test_case ("golden serve " ^ label) `Quick
          (test_serve golden_serve serve_digest c))
      serve_cells
  @ List.map
      (fun ((label, _) as c) ->
        Alcotest.test_case ("golden serve registry " ^ label) `Quick
          (test_serve golden_serve_registry serve_registry_digest c))
      serve_cells
  @ List.map
      (fun ((label, _) as c) ->
        Alcotest.test_case ("clean serve " ^ label) `Quick (test_serve_clean c))
      serve_cells
