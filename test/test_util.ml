open Stx_util

let check_float = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.next a) in
  let ys = List.init 20 (fun _ -> Rng.next c) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_nonnegative () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "next >= 0" true (Rng.next r >= 0)
  done

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (x >= 0. && x < 2.5)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* SplitMix64's first draws for seed 42: a change of state layout must
   leave every stream bit-identical *)
let test_rng_pinned_draws () =
  let r = Rng.create 42 in
  Alcotest.(check (list int)) "first four draws"
    [ 2749113066540076570; 739554815828047797; 767374426118319285;
      221479889520321091 ]
    (List.init 4 (fun _ -> Rng.next r))

(* a draw runs on every polite backoff and every TIR rng intrinsic, so
   it must not allocate *)
let test_rng_allocates_nothing () =
  let r = Rng.create 1 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    ignore (Sys.opaque_identity (Rng.int r 1000))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over 10^6 draws" words)
    true (words < 64.)

let test_tally_helpers () =
  let a = Hashtbl.create 4 and b = Hashtbl.create 4 in
  List.iter (Stat.bump a) [ 9; 5; 9; 5; 2 ];
  List.iter (Stat.bump b) [ 2; 2 ];
  Alcotest.(check (option (pair int int))) "tie goes to the lower key" (Some (5, 2))
    (Stat.top a);
  Stat.merge_into a b;
  Alcotest.(check (list (pair int int))) "merged, key ascending"
    [ (2, 3); (5, 2); (9, 2) ] (Stat.by_key a);
  Alcotest.(check (option (pair int int))) "empty" None (Stat.top (Hashtbl.create 1))

let test_stat_basic () =
  let s = Stat.create () in
  List.iter (Stat.add s) [ 1.; 2.; 3.; 4. ];
  check_float "mean" 2.5 (Stat.mean s);
  check_float "total" 10. (Stat.total s);
  check_float "min" 1. (Stat.min s);
  check_float "max" 4. (Stat.max s);
  Alcotest.(check int) "count" 4 (Stat.count s);
  check_float "variance" (5. /. 3.) (Stat.variance s)

let test_stat_empty () =
  let s = Stat.create () in
  check_float "mean of empty" 0. (Stat.mean s);
  check_float "variance of empty" 0. (Stat.variance s)

let test_harmonic_mean () =
  check_float "harmonic" 1.2 (Stat.harmonic_mean [ 1.; 1.; 2. ]);
  check_float "harmonic empty" 0. (Stat.harmonic_mean [])

let test_geometric_mean () =
  check_float "geometric" 2. (Stat.geometric_mean [ 1.; 2.; 4. ])

let test_ratio () =
  check_float "ratio" 0.5 (Stat.ratio 1 2);
  check_float "ratio div0" 0. (Stat.ratio 1 0);
  check_float "percent" 25. (Stat.percent 1 4)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "mentions alpha" true
    (contains s "alpha");
  Alcotest.(check bool) "mentions 22" true (contains s "22")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* a PC-tag column lines up whether or not a tag has a hex letter *)
let test_table_right_aligns_hex () =
  let t = Table.create [ "conflicting PC"; "note" ] in
  Table.add_row t [ "0x0bc"; "0xg" ];
  Table.add_row t [ "0x078"; "1.18x" ];
  Alcotest.(check string) "layout"
    (String.concat "\n"
       [
         "+----------------+-------+";
         "| conflicting PC | note  |";
         "+================+=======+";
         "|          0x0bc | 0xg   |";
         "|          0x078 | 1.18x |";
         "+----------------+-------+";
         "";
       ])
    (Table.render t)

let test_fmt () =
  Alcotest.(check string) "fmt_f" "3.14" (Table.fmt_f 3.14159);
  Alcotest.(check string) "fmt_pct" "27%" (Table.fmt_pct 27.4)

let qcheck_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int always within bound" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let qcheck_stat_mean_between_min_max =
  QCheck.Test.make ~name:"Stat.mean between min and max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stat.create () in
      List.iter (Stat.add s) xs;
      Stat.mean s >= Stat.min s -. 1e-9 && Stat.mean s <= Stat.max s +. 1e-9)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng next nonnegative" `Quick test_rng_nonnegative;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng draws pinned" `Quick test_rng_pinned_draws;
    Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_allocates_nothing;
    Alcotest.test_case "tally bump, merge, top" `Quick test_tally_helpers;
    Alcotest.test_case "stat basic" `Quick test_stat_basic;
    Alcotest.test_case "stat empty" `Quick test_stat_empty;
    Alcotest.test_case "harmonic mean" `Quick test_harmonic_mean;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "ratio helpers" `Quick test_ratio;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "table right-aligns hex literals" `Quick
      test_table_right_aligns_hex;
    Alcotest.test_case "float formatting" `Quick test_fmt;
    q qcheck_rng_int_bounds;
    q qcheck_stat_mean_between_min_max;
  ]
