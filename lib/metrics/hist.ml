(* Values are cycle counts, set sizes and retry counts: non-negative ints
   far below 2^62, so 63 buckets (value 0 plus one per bit width) cover
   the whole domain. *)

let nbuckets = 63

(* the bucket arrays stay [||] until the first observation *)
type t = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int; (* max_int while empty *)
  mutable max_v : int;
  mutable buckets : int array;
  mutable bmax : int array; (* largest value observed per bucket; 0 where empty *)
}

let create () =
  { count = 0; sum = 0; min_v = max_int; max_v = 0; buckets = [||]; bmax = [||] }

let fill t =
  t.buckets <- Array.make nbuckets 0;
  t.bmax <- Array.make nbuckets 0

let is_empty t = t.count = 0

let bucket_index v =
  let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1) in
  bits 0 v

let bucket_lower k = if k = 0 then 0 else 1 lsl (k - 1)
let bucket_upper k = if k = 0 then 0 else (1 lsl k) - 1

let add t v =
  if v < 0 then invalid_arg "Hist.add: negative value";
  if t.count = 0 then fill t;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  let k = bucket_index v in
  t.buckets.(k) <- t.buckets.(k) + 1;
  if v > t.bmax.(k) then t.bmax.(k) <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

let quantile t q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Hist.quantile: q outside [0,1]";
  if t.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    let k = ref 0 and cum = ref t.buckets.(0) in
    while !cum < rank do
      incr k;
      cum := !cum + t.buckets.(!k)
    done;
    (* the rank bucket is occupied, so its per-bucket max is an actually
       observed value — at most one bucket above the true order statistic,
       never an invented boundary like bucket_upper *)
    t.bmax.(!k)
  end

let p50 t = quantile t 0.5
let p99 t = quantile t 0.99

let add_into t h =
  for i = 0 to Array.length h.buckets - 1 do
    t.buckets.(i) <- t.buckets.(i) + h.buckets.(i);
    if h.bmax.(i) > t.bmax.(i) then t.bmax.(i) <- h.bmax.(i)
  done

let merge a b =
  let t = create () in
  t.count <- a.count + b.count;
  t.sum <- a.sum + b.sum;
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  if t.count > 0 then fill t;
  add_into t a;
  add_into t b;
  t

let buckets_full t =
  let acc = ref [] in
  for k = Array.length t.buckets - 1 downto 0 do
    if t.buckets.(k) > 0 then acc := (k, t.buckets.(k), t.bmax.(k)) :: !acc
  done;
  !acc

let json_fields t =
  let int i = Json.Int i in
  [
    ("count", int t.count);
    ("sum", int t.sum);
    ("min", int (min_value t));
    ("max", int (max_value t));
    ( "buckets",
      Json.List
        (List.map (fun (k, c, m) -> Json.List [ int k; int c; int m ]) (buckets_full t)) );
  ]

let equal a b =
  a.count = b.count && a.sum = b.sum
  && (a.count = 0 || (a.min_v = b.min_v && a.max_v = b.max_v))
  && a.buckets = b.buckets && a.bmax = b.bmax

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf "n=%d sum=%d min=%d p50=%d p99=%d max=%d" t.count t.sum
      (min_value t) (p50 t) (p99 t) t.max_v
