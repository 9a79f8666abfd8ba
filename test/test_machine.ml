open Stx_machine

let cfg = Config.default

let test_memory_roundtrip () =
  let m = Memory.create () in
  Memory.store m 8 42;
  Alcotest.(check int) "load back" 42 (Memory.load m 8);
  Alcotest.(check int) "fresh is zero" 0 (Memory.load m 9)

let test_memory_growth () =
  let m = Memory.create ~initial_words:16 () in
  Memory.store m 1_000_000 7;
  Alcotest.(check int) "grown load" 7 (Memory.load m 1_000_000);
  Alcotest.(check int) "unwritten beyond capacity" 0 (Memory.load m 999_999)

let test_memory_rejects_null () =
  let m = Memory.create () in
  Alcotest.check_raises "store to 0" (Invalid_argument "Memory: address must be positive")
    (fun () -> Memory.store m 0 1);
  Alcotest.check_raises "load of 0" (Invalid_argument "Memory: address must be positive")
    (fun () -> ignore (Memory.load m 0))

let test_line_of () =
  Alcotest.(check int) "line 0" 0 (Memory.line_of ~words_per_line:8 7);
  Alcotest.(check int) "line 1" 1 (Memory.line_of ~words_per_line:8 8)

let test_alloc_disjoint () =
  let m = Memory.create () in
  let a = Alloc.create ~words_per_line:8 m in
  let x = Alloc.alloc a ~thread:0 4 in
  let y = Alloc.alloc a ~thread:0 4 in
  Alcotest.(check bool) "disjoint" true (abs (x - y) >= 4);
  Alcotest.(check bool) "nonnull" true (x > 0 && y > 0)

let test_alloc_line_aligned () =
  let m = Memory.create () in
  let a = Alloc.create ~words_per_line:8 m in
  for _ = 1 to 20 do
    let p = Alloc.alloc a ~thread:1 3 in
    Alcotest.(check int) "aligned" 0 (p mod 8)
  done

let test_alloc_threads_never_share_lines () =
  let m = Memory.create () in
  let a = Alloc.create ~words_per_line:8 m in
  let lines t =
    List.init 30 (fun _ -> Alloc.alloc a ~thread:t 2 / 8)
  in
  let l0 = lines 0 and l1 = lines 1 in
  List.iter
    (fun l -> Alcotest.(check bool) "no shared line" false (List.mem l l1))
    l0

let test_alloc_large_object () =
  let m = Memory.create () in
  let a = Alloc.create ~arena_words:64 ~words_per_line:8 m in
  let p = Alloc.alloc a ~thread:0 1000 in
  Memory.store m (p + 999) 5;
  Alcotest.(check int) "large object usable" 5 (Memory.load m (p + 999))

let test_alloc_rejects_nonpositive () =
  let m = Memory.create () in
  let a = Alloc.create ~words_per_line:8 m in
  Alcotest.check_raises "zero alloc"
    (Invalid_argument "Alloc.alloc: size must be positive") (fun () ->
      ignore (Alloc.alloc a ~thread:0 0))

module Cache = Hierarchy.Cache

let test_cache_hit_after_insert () =
  let c = Cache.create ~lines:64 ~ways:4 in
  Alcotest.(check bool) "miss first" false (Cache.probe c 5);
  Cache.insert c 5;
  Alcotest.(check bool) "hit after insert" true (Cache.probe c 5)

let test_cache_lru_eviction () =
  let c = Cache.create ~lines:8 ~ways:2 in
  (* set count = 4; lines 0,4,8 map to set 0 *)
  Cache.insert c 0;
  Cache.insert c 4;
  Cache.insert c 8;
  (* 0 was LRU, should be evicted *)
  Alcotest.(check bool) "evicted" false (Cache.probe c 0);
  Alcotest.(check bool) "kept 4" true (Cache.probe c 4);
  Alcotest.(check bool) "kept 8" true (Cache.probe c 8)

let test_cache_probe_refreshes_lru () =
  let c = Cache.create ~lines:8 ~ways:2 in
  Cache.insert c 0;
  Cache.insert c 4;
  ignore (Cache.probe c 0);
  (* now 4 is LRU *)
  Cache.insert c 8;
  Alcotest.(check bool) "0 survives" true (Cache.probe c 0);
  Alcotest.(check bool) "4 evicted" false (Cache.probe c 4)

let test_cache_invalidate () =
  let c = Cache.create ~lines:8 ~ways:2 in
  Cache.insert c 3;
  Cache.invalidate c 3;
  Alcotest.(check bool) "gone" false (Cache.probe c 3)

let test_hierarchy_latency_ladder () =
  let h = Hierarchy.create cfg in
  let first = Hierarchy.access h ~core:0 ~line:100 ~write:false in
  Alcotest.(check int) "cold miss" cfg.Config.mem_latency first;
  let second = Hierarchy.access h ~core:0 ~line:100 ~write:false in
  Alcotest.(check int) "l1 hit" cfg.Config.l1_latency second

let test_hierarchy_l3_sharing () =
  let h = Hierarchy.create cfg in
  ignore (Hierarchy.access h ~core:0 ~line:100 ~write:false);
  let other = Hierarchy.access h ~core:1 ~line:100 ~write:false in
  Alcotest.(check int) "other core hits shared l3" cfg.Config.l3_latency other

let test_hierarchy_write_invalidates_peers () =
  let h = Hierarchy.create cfg in
  ignore (Hierarchy.access h ~core:0 ~line:100 ~write:false);
  ignore (Hierarchy.access h ~core:1 ~line:100 ~write:true);
  let again = Hierarchy.access h ~core:0 ~line:100 ~write:false in
  Alcotest.(check int) "coherence miss back to l3" cfg.Config.l3_latency again

(* -- Linetbl: the flat open-addressed table behind the HTM sets -- *)

let test_linetbl_insert_member () =
  let t = Linetbl.create ~capacity_hint:4 () in
  Alcotest.(check bool) "empty" false (Linetbl.idx t 5 >= 0);
  Linetbl.add t 5 50;
  Linetbl.add t 9 90;
  Alcotest.(check bool) "member 5" true (Linetbl.idx t 5 >= 0);
  Alcotest.(check bool) "member 9" true (Linetbl.idx t 9 >= 0);
  Alcotest.(check bool) "non-member" false (Linetbl.idx t 6 >= 0);
  Alcotest.(check int) "length" 2 (Linetbl.length t);
  Alcotest.(check int) "value via idx" 50 (Linetbl.value_at t (Linetbl.idx t 5));
  Alcotest.(check int) "missing idx" (-1) (Linetbl.idx t 6);
  Linetbl.add t 5 51;
  Alcotest.(check int) "overwrite keeps length" 2 (Linetbl.length t);
  Alcotest.(check int) "overwritten value" 51 (Linetbl.value_at t (Linetbl.idx t 5))

let test_linetbl_find () =
  let t = Linetbl.create () in
  Alcotest.(check int) "absent key" (-7) (Linetbl.find t 3 ~absent:(-7));
  Linetbl.add t 3 30;
  Alcotest.(check int) "present key" 30 (Linetbl.find t 3 ~absent:(-7));
  Linetbl.add t 3 31;
  Alcotest.(check int) "overwritten value" 31 (Linetbl.find t 3 ~absent:(-7));
  Alcotest.(check int) "negative key is absent" (-7) (Linetbl.find t (-3) ~absent:(-7))

let test_linetbl_reset_reuse () =
  let t = Linetbl.create ~capacity_hint:8 () in
  for round = 1 to 3 do
    for k = 0 to 9 do
      Linetbl.add t (k * 7) (round * k)
    done;
    Alcotest.(check int) "filled" 10 (Linetbl.length t);
    Linetbl.reset t;
    Alcotest.(check int) "reset empties" 0 (Linetbl.length t);
    for k = 0 to 9 do
      Alcotest.(check bool) "reset forgets" false (Linetbl.idx t (k * 7) >= 0)
    done
  done

let test_linetbl_growth_at_capacity () =
  (* hint of 4 preallocates 16 slots; pushing far past the 50% load
     bound must grow transparently rather than overflow or drop keys *)
  let t = Linetbl.create ~capacity_hint:4 () in
  let n = 1000 in
  for k = 0 to n - 1 do
    Linetbl.add t k (k * 2)
  done;
  Alcotest.(check int) "all inserted" n (Linetbl.length t);
  Alcotest.(check bool) "capacity grew" true (Linetbl.capacity t >= 2 * n);
  for k = 0 to n - 1 do
    Alcotest.(check int) "survived growth" (k * 2)
      (Linetbl.value_at t (Linetbl.idx t k))
  done

let test_linetbl_iteration_order () =
  (* commit and stm_publish walk the write set in this order; it must be
     insertion order and must survive growth *)
  let keys = [ 40; 3; 177; 12; 9000; 1; 64; 2048 ] in
  let t = Linetbl.create ~capacity_hint:2 () in
  List.iteri (fun i k -> Linetbl.add t k i) keys;
  let seen = ref [] in
  Linetbl.iter (fun k v -> seen := (k, v) :: !seen) t;
  Alcotest.(check (list (pair int int)))
    "insertion order" (List.mapi (fun i k -> (k, i)) keys) (List.rev !seen);
  (* force growth, then re-check the prefix order is untouched *)
  for k = 10_000 to 11_000 do
    Linetbl.add t k 0
  done;
  List.iteri
    (fun i k ->
      Alcotest.(check int) "order survives growth" k (Linetbl.key_of_order t i);
      Alcotest.(check int) "value survives growth" i (Linetbl.value_of_order t i))
    keys

let test_linetbl_rejects_negative () =
  let t = Linetbl.create () in
  Alcotest.check_raises "negative key" (Invalid_argument "Linetbl.set: negative key")
    (fun () -> Linetbl.add t (-1) 0);
  Alcotest.(check int) "idx of negative is -1" (-1) (Linetbl.idx t (-3))

let qcheck_linetbl_model =
  (* model check against Hashtbl over adversarial small keys (lots of
     collisions at 16 slots) *)
  QCheck.Test.make ~name:"linetbl: agrees with Hashtbl model" ~count:200
    QCheck.(list (pair (int_range 0 40) small_nat))
    (fun ops ->
      let t = Linetbl.create () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Linetbl.add t k v;
          Hashtbl.replace h k v)
        ops;
      Hashtbl.length h = Linetbl.length t
      && Hashtbl.fold
           (fun k v ok -> ok && Linetbl.idx t k >= 0
                          && Linetbl.value_at t (Linetbl.idx t k) = v)
           h true)

(* -- Bitmat: the dense line x core bit matrix -- *)

let test_bitmat_set_test_clear () =
  let b = Bitmat.create ~cols:128 ~rows_hint:16 () in
  Alcotest.(check bool) "initially clear" false (Bitmat.test b ~row:3 ~col:70);
  Bitmat.set b ~row:3 ~col:70;
  Bitmat.set b ~row:3 ~col:0;
  Alcotest.(check bool) "set high col" true (Bitmat.test b ~row:3 ~col:70);
  Alcotest.(check bool) "set col 0" true (Bitmat.test b ~row:3 ~col:0);
  Alcotest.(check bool) "other row clear" false (Bitmat.test b ~row:4 ~col:70);
  Bitmat.clear b ~row:3 ~col:70;
  Alcotest.(check bool) "cleared" false (Bitmat.test b ~row:3 ~col:70);
  Alcotest.(check bool) "col 0 untouched" true (Bitmat.test b ~row:3 ~col:0)

let test_bitmat_row_growth () =
  let b = Bitmat.create ~cols:16 ~rows_hint:16 () in
  Bitmat.set b ~row:5 ~col:2;
  Bitmat.set b ~row:100_000 ~col:7;
  Alcotest.(check bool) "old row survives growth" true (Bitmat.test b ~row:5 ~col:2);
  Alcotest.(check bool) "grown row" true (Bitmat.test b ~row:100_000 ~col:7);
  Alcotest.(check bool) "read past capacity is false" false
    (Bitmat.test b ~row:10_000_000 ~col:3)

let test_bitmat_row_queries () =
  let b = Bitmat.create ~cols:128 () in
  Alcotest.(check bool) "fresh row empty" true (Bitmat.row_is_empty b ~row:9);
  Bitmat.set b ~row:9 ~col:63;
  Alcotest.(check bool) "not empty" false (Bitmat.row_is_empty b ~row:9);
  Alcotest.(check bool) "has other than 5" true (Bitmat.row_has_other b ~row:9 ~except:5);
  Alcotest.(check bool) "has no other than 63" false
    (Bitmat.row_has_other b ~row:9 ~except:63);
  Bitmat.set b ~row:9 ~col:2;
  Alcotest.(check bool) "now another besides 63" true
    (Bitmat.row_has_other b ~row:9 ~except:63);
  let cols = ref [] in
  Bitmat.iter_row b ~row:9 (fun c -> cols := c :: !cols);
  Alcotest.(check (list int)) "iter_row ascending" [ 2; 63 ] (List.rev !cols)

let qcheck_bitmat_model =
  QCheck.Test.make ~name:"bitmat: agrees with set-of-pairs model" ~count:200
    QCheck.(list (triple bool (int_range 0 200) (int_range 0 99)))
    (fun ops ->
      let b = Bitmat.create ~cols:100 ~rows_hint:16 () in
      let m = Hashtbl.create 16 in
      List.iter
        (fun (set, row, col) ->
          if set then begin
            Bitmat.set b ~row ~col;
            Hashtbl.replace m (row, col) ()
          end
          else begin
            Bitmat.clear b ~row ~col;
            Hashtbl.remove m (row, col)
          end)
        ops;
      List.for_all
        (fun (_, row, col) -> Bitmat.test b ~row ~col = Hashtbl.mem m (row, col))
        ops)

let test_config_pp () =
  let s = Format.asprintf "%a" Config.pp cfg in
  Alcotest.(check bool) "mentions L1" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0))

let qcheck_cache_insert_then_probe =
  QCheck.Test.make ~name:"cache: inserted line probes true immediately" ~count:300
    QCheck.(small_nat)
    (fun line ->
      let c = Cache.create ~lines:64 ~ways:4 in
      Cache.insert c line;
      Cache.probe c line)

(* -- Model checks: the cache and hierarchy against naive references -- *)

(* One list per set, most- to least-recently used; set = line mod sets. *)
module Ref_cache = struct
  type t = { sets : int list array; ways : int }

  let create ~lines ~ways = { sets = Array.make (lines / ways) []; ways }
  let set t line = line mod Array.length t.sets
  let holds t line = List.mem line t.sets.(set t line)

  let probe t line =
    let s = set t line in
    List.mem line t.sets.(s)
    && begin
         t.sets.(s) <- line :: List.filter (( <> ) line) t.sets.(s);
         true
       end

  let insert_evict t line =
    let s = set t line in
    if probe t line then -1
    else begin
      let l = line :: t.sets.(s) in
      if List.length l <= t.ways then begin
        t.sets.(s) <- l;
        -1
      end
      else begin
        t.sets.(s) <- List.filteri (fun i _ -> i < t.ways) l;
        List.nth l t.ways
      end
    end

  let invalidate t line =
    let s = set t line in
    t.sets.(s) <- List.filter (( <> ) line) t.sets.(s)
end

(* The hierarchy as the docs state it: each core's L1 and L2 and the
   shared L3 as reference caches; a write to a line another core holds
   privately invalidates every other copy, found by a scan of all cores. *)
module Ref_hier = struct
  type t = { cfg : Config.t; l1 : Ref_cache.t array; l2 : Ref_cache.t array; l3 : Ref_cache.t }

  let create (cfg : Config.t) =
    {
      cfg;
      l1 = Array.init cfg.cores (fun _ -> Ref_cache.create ~lines:cfg.l1_lines ~ways:cfg.l1_ways);
      l2 = Array.init cfg.cores (fun _ -> Ref_cache.create ~lines:cfg.l2_lines ~ways:cfg.l2_ways);
      l3 = Ref_cache.create ~lines:cfg.l3_lines ~ways:cfg.l3_ways;
    }

  let access t ~core ~line ~write =
    let c = t.cfg in
    let others = List.filter (( <> ) core) (List.init c.cores Fun.id) in
    let upgrade =
      write
      && List.exists (fun v -> Ref_cache.holds t.l1.(v) line || Ref_cache.holds t.l2.(v) line) others
    in
    let fill caches = List.iter (fun k -> ignore (Ref_cache.insert_evict k line)) caches in
    let latency =
      if Ref_cache.probe t.l1.(core) line then c.l1_latency
      else if Ref_cache.probe t.l2.(core) line then (fill [ t.l1.(core) ]; c.l2_latency)
      else if Ref_cache.probe t.l3 line then (fill [ t.l2.(core); t.l1.(core) ]; c.l3_latency)
      else (fill [ t.l3; t.l2.(core); t.l1.(core) ]; c.mem_latency)
    in
    if upgrade then begin
      List.iter (fun v -> Ref_cache.invalidate t.l1.(v) line; Ref_cache.invalidate t.l2.(v) line) others;
      if latency >= c.l3_latency then latency else c.l3_latency
    end
    else latency
end

(* Small caches over a few dozen lines, so that sets fill, evict and
   ping-pong within one short sequence. *)
let tiny_cfg cores =
  {
    (Config.with_cores cores cfg) with
    Config.l1_lines = 4;
    l1_ways = 2;
    l2_lines = 8;
    l2_ways = 2;
    l3_lines = 32;
    l3_ways = 4;
  }

let qcheck_cache_model =
  QCheck.Test.make ~name:"cache: agrees with list-LRU reference" ~count:300
    QCheck.(list (pair (int_range 0 3) (int_range 0 23)))
    (fun ops ->
      let c = Cache.create ~lines:8 ~ways:4 and r = Ref_cache.create ~lines:8 ~ways:4 in
      let ok =
        List.for_all
          (fun (op, line) ->
            match op with
            | 0 -> Cache.probe c line = Ref_cache.probe r line
            | 1 -> Cache.holds c line = Ref_cache.holds r line
            | 2 -> Cache.insert_evict c line = Ref_cache.insert_evict r line
            | _ ->
              Cache.invalidate c line;
              Ref_cache.invalidate r line;
              true)
          ops
        && List.for_all (fun line -> Cache.holds c line = Ref_cache.holds r line) (List.init 24 Fun.id)
      in
      Cache.retire c;
      ok)

(* 2-128 cores: above 62 a presence row spans several Bitmat words. *)
let qcheck_hierarchy_model =
  QCheck.Test.make ~name:"hierarchy: agrees with scanning reference, 2-128 cores" ~count:300
    QCheck.(pair (int_range 0 126) (list_of_size Gen.(int_range 1 400) (triple (int_range 0 3) (int_range 0 23) bool)))
    (fun (extra, ops) ->
      (* shrinking moves [extra] toward 0, never below two cores *)
      let cores = 2 + extra in
      let cfg = tiny_cfg cores in
      let h = Hierarchy.create cfg and r = Ref_hier.create cfg in
      (* four busy cores, so that each core's caches see long sequences;
         at 128 cores they sit in all three words of a presence row *)
      let busy = [| 0; 1; cores / 2; cores - 1 |] in
      let ok =
        List.for_all
          (fun (k, line, write) ->
            let core = busy.(k) in
            Hierarchy.access h ~core ~line ~write = Ref_hier.access r ~core ~line ~write)
          ops
      in
      Hierarchy.retire h;
      ok)

let qcheck_alloc_alignment =
  QCheck.Test.make ~name:"alloc: always line aligned" ~count:200
    QCheck.(pair (int_range 0 7) (int_range 1 64))
    (fun (thread, size) ->
      let m = Memory.create () in
      let a = Alloc.create ~words_per_line:8 m in
      Alloc.alloc a ~thread size mod 8 = 0)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "memory growth" `Quick test_memory_growth;
    Alcotest.test_case "memory rejects null" `Quick test_memory_rejects_null;
    Alcotest.test_case "line_of" `Quick test_line_of;
    Alcotest.test_case "alloc disjoint" `Quick test_alloc_disjoint;
    Alcotest.test_case "alloc line aligned" `Quick test_alloc_line_aligned;
    Alcotest.test_case "alloc threads never share lines" `Quick
      test_alloc_threads_never_share_lines;
    Alcotest.test_case "alloc large object" `Quick test_alloc_large_object;
    Alcotest.test_case "alloc rejects nonpositive" `Quick test_alloc_rejects_nonpositive;
    Alcotest.test_case "cache hit after insert" `Quick test_cache_hit_after_insert;
    Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache probe refreshes lru" `Quick test_cache_probe_refreshes_lru;
    Alcotest.test_case "cache invalidate" `Quick test_cache_invalidate;
    Alcotest.test_case "hierarchy latency ladder" `Quick test_hierarchy_latency_ladder;
    Alcotest.test_case "hierarchy l3 sharing" `Quick test_hierarchy_l3_sharing;
    Alcotest.test_case "hierarchy write invalidates peers" `Quick
      test_hierarchy_write_invalidates_peers;
    Alcotest.test_case "config pp" `Quick test_config_pp;
    q qcheck_cache_model;
    q qcheck_hierarchy_model;
    Alcotest.test_case "linetbl insert/member" `Quick test_linetbl_insert_member;
    Alcotest.test_case "linetbl find" `Quick test_linetbl_find;
    Alcotest.test_case "linetbl reset and reuse" `Quick test_linetbl_reset_reuse;
    Alcotest.test_case "linetbl growth at capacity bound" `Quick
      test_linetbl_growth_at_capacity;
    Alcotest.test_case "linetbl deterministic iteration order" `Quick
      test_linetbl_iteration_order;
    Alcotest.test_case "linetbl rejects negative keys" `Quick
      test_linetbl_rejects_negative;
    Alcotest.test_case "bitmat set/test/clear" `Quick test_bitmat_set_test_clear;
    Alcotest.test_case "bitmat row growth" `Quick test_bitmat_row_growth;
    Alcotest.test_case "bitmat row queries" `Quick test_bitmat_row_queries;
    q qcheck_cache_insert_then_probe;
    q qcheck_alloc_alignment;
    q qcheck_linetbl_model;
    q qcheck_bitmat_model;
  ]
