(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would box every update, so every draw would allocate. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (next_int64 t)

let next t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod n

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x *. u /. 9007199254740992.0 (* 2^53 *)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
