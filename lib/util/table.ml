type t = { headers : string list; mutable rows : string list list (* reversed *) }

let create headers = { headers; rows = [] }

let add_row t cells = t.rows <- cells :: t.rows

let fmt_f ?(dec = 2) x = Printf.sprintf "%.*f" dec x
let fmt_pct ?(dec = 0) x = Printf.sprintf "%.*f%%" dec x

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* figures, ratios ("1.18x"), percentages and 0x-prefixed hex literals
   (PC tags) are right-aligned *)
let looks_numeric s =
  let n = String.length s in
  (n > 2 && String.starts_with ~prefix:"0x" s
   && String.for_all is_hex_digit (String.sub s 2 (n - 2)))
  || (n > 0 && String.for_all (fun c -> is_digit c || String.contains "+-.%x" c) s)

let render t =
  let ncols = List.length t.headers in
  let normalize cells =
    let rec take n = function
      | _ when n = 0 -> []
      | [] -> List.init n (fun _ -> "")
      | c :: rest -> c :: take (n - 1) rest
    in
    take ncols cells
  in
  let rows = List.rev_map normalize t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let widen cells =
    List.iteri
      (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  List.iter widen rows;
  let buf = Buffer.create 256 in
  let pad i c =
    let w = widths.(i) in
    let n = w - String.length c in
    if looks_numeric c then String.make n ' ' ^ c else c ^ String.make n ' '
  in
  let line ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad i c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  line '-';
  emit t.headers;
  line '=';
  List.iter emit rows;
  line '-';
  Buffer.contents buf

let print t = print_string (render t)
