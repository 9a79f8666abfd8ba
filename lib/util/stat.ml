type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = t.min
let max t = t.max
let total t = t.total

let harmonic_mean = function
  | [] -> 0.
  | xs ->
    let n = float_of_int (List.length xs) in
    let denom = List.fold_left (fun acc x -> acc +. (1. /. x)) 0. xs in
    n /. denom

let geometric_mean = function
  | [] -> 0.
  | xs ->
    let n = float_of_int (List.length xs) in
    let log_sum = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (log_sum /. n)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let percent part whole = 100. *. ratio part whole

let ranked tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, c1) (k2, c2) ->
         if c1 <> c2 then compare (c2 : int) c1 else compare k1 k2)

let add_count tbl key n =
  let c = match Hashtbl.find tbl key with c -> c | exception Not_found -> 0 in
  Hashtbl.replace tbl key (c + n)

let bump tbl key = add_count tbl key 1
let merge_into dst src = Hashtbl.iter (add_count dst) src

let top tbl =
  Hashtbl.fold
    (fun key c best ->
      match best with
      | Some (bk, bc) when bc > c || (bc = c && bk < key) -> best
      | _ -> Some (key, c))
    tbl None

let by_key tbl =
  Hashtbl.fold (fun key c acc -> (key, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
