type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> Buffer.add_string b (float_literal f)
    | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
    | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* --- parsing -------------------------------------------------------- *)

exception Parse_error of string * int

(* far past the few levels our own documents nest, and shallow enough
   that a run of brackets fails fast instead of recursing per byte *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
        advance ();
        Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
          advance ();
          let code = ref 0 in
          for _ = 1 to 4 do
            code := (!code * 16) + hex_digit (peek ());
            advance ()
          done;
          (* BMP only; enough for our own output *)
          if !code < 0x80 then Buffer.add_char b (Char.chr !code)
          else Buffer.add_char b '?'
        | _ -> fail "bad escape");
        go ()
      | '\000' -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ()
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nested deeper than %d" max_depth)
    | '{' -> obj (depth + 1)
    | '[' -> arr (depth + 1)
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  and literal lit v =
    String.iter expect lit;
    v
  and number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while is_num_char (peek ()) do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    let lit = String.sub s start (!pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
    else (
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number"))
  and arr depth =
    expect '[';
    skip_ws ();
    if peek () = ']' then (
      advance ();
      List [])
    else
      let rec items acc =
        let v = value depth in
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          items (v :: acc)
        | ']' ->
          advance ();
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      items []
  and obj depth =
    expect '{';
    skip_ws ();
    if peek () = '}' then (
      advance ();
      Obj [])
    else
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = value depth in
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          members ((k, v) :: acc)
        | '}' ->
          advance ();
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) ->
    Error (Printf.sprintf "%s at byte %d" msg at)

(* --- accessors ------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let as_string = function Str s -> Some s | _ -> None
let as_int = function Int n -> Some n | _ -> None

let as_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let as_list = function List l -> Some l | _ -> None
let as_obj = function Obj fields -> Some fields | _ -> None
