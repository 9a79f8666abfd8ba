module Resolution = struct
  type t = Requester_wins | Responder_wins | Timestamp

  let to_string = function
    | Requester_wins -> "requester-wins"
    | Responder_wins -> "responder-wins"
    | Timestamp -> "timestamp"

  let of_string = function
    | "requester-wins" | "requester" -> Ok Requester_wins
    | "responder-wins" | "responder" | "suicide" -> Ok Responder_wins
    | "timestamp" | "karma" -> Ok Timestamp
    | s ->
      Error
        (Printf.sprintf
           "unknown resolution policy %S (expected requester-wins, \
            responder-wins, or timestamp)"
           s)

  let all = [ Requester_wins; Responder_wins; Timestamp ]
end

module Capacity = struct
  type t = Unbounded | Bounded of { read_lines : int; write_lines : int }

  let to_string = function
    | Unbounded -> "unbounded"
    | Bounded { read_lines; write_lines } ->
      Printf.sprintf "bounded:%d:%d" read_lines write_lines

  let of_string s =
    match s with
    | "unbounded" -> Ok Unbounded
    | _ -> (
      match String.split_on_char ':' s with
      | [ "bounded"; r; w ] -> (
        match (int_of_string_opt r, int_of_string_opt w) with
        | Some read_lines, Some write_lines
          when read_lines > 0 && write_lines > 0 ->
          Ok (Bounded { read_lines; write_lines })
        | _ ->
          Error
            (Printf.sprintf
               "capacity budgets must be positive integers in %S" s))
      | _ ->
        Error
          (Printf.sprintf
             "unknown capacity policy %S (expected unbounded or bounded:R:W)"
             s))
end

module Fallback = struct
  type t =
    | Polite of { retries : int option }
    | Backoff of { retries : int; base : int; max_exp : int; seed : int }
    | Stm_tier of { retries : int option; stm_retries : int }

  (* hardware attempts before the fallback, as in the paper *)
  let retries_default = 10

  (* software attempts before the STM tier gives up and takes the lock *)
  let stm_retries_default = 8

  let to_string = function
    | Polite { retries = None } -> "polite"
    | Polite { retries = Some n } -> Printf.sprintf "polite:%d" n
    | Backoff { retries; base; max_exp; seed } ->
      Printf.sprintf "backoff:%d:%d:%d:%d" retries base max_exp seed
    | Stm_tier { retries = None; stm_retries }
      when stm_retries = stm_retries_default -> "htm-stm-lock"
    | Stm_tier { retries = None; stm_retries } ->
      Printf.sprintf "stm:%d" stm_retries
    | Stm_tier { retries = Some r; stm_retries } ->
      Printf.sprintf "htm-stm-lock:%d:%d" r stm_retries

  (* defaults for a bare "backoff": the paper's attempt budget, a modest
     base delay, and a cap of 2^8 periods *)
  let backoff_defaults = (retries_default, 16, 8, 0)

  let of_string s =
    match String.split_on_char ':' s with
    | [ "polite" ] -> Ok (Polite { retries = None })
    | [ "polite"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (Polite { retries = Some n })
      | _ -> Error (Printf.sprintf "polite retry budget must be >= 0 in %S" s))
    | "backoff" :: rest -> (
      let dr, db, dm, ds = backoff_defaults in
      let parse def = function
        | None -> Some def
        | Some x -> int_of_string_opt x
      in
      let nth i = List.nth_opt rest i in
      match
        (parse dr (nth 0), parse db (nth 1), parse dm (nth 2), parse ds (nth 3))
      with
      | Some retries, Some base, Some max_exp, Some seed
        when List.length rest <= 4 && retries >= 0 && base > 0 && max_exp >= 0
        ->
        Ok (Backoff { retries; base; max_exp; seed })
      | _ ->
        Error
          (Printf.sprintf
             "bad backoff spec %S (expected backoff[:retries[:base[:max_exp[:seed]]]])"
             s))
    | [ "stm" ] -> Ok (Stm_tier { retries = None; stm_retries = stm_retries_default })
    | [ "stm"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (Stm_tier { retries = None; stm_retries = n })
      | _ -> Error (Printf.sprintf "stm retry budget must be > 0 in %S" s))
    | [ "htm-stm-lock" ] ->
      Ok (Stm_tier { retries = None; stm_retries = stm_retries_default })
    | [ "htm-stm-lock"; r ] -> (
      match int_of_string_opt r with
      | Some r when r >= 0 ->
        Ok (Stm_tier { retries = Some r; stm_retries = stm_retries_default })
      | _ ->
        Error (Printf.sprintf "hardware retry budget must be >= 0 in %S" s))
    | [ "htm-stm-lock"; r; n ] -> (
      match (int_of_string_opt r, int_of_string_opt n) with
      | Some r, Some n when r >= 0 && n > 0 ->
        Ok (Stm_tier { retries = Some r; stm_retries = n })
      | _ ->
        Error
          (Printf.sprintf
             "bad htm-stm-lock spec %S (hardware retries >= 0, stm retries > 0)"
             s))
    | _ ->
      Error
        (Printf.sprintf
           "unknown fallback policy %S (expected polite[:N], backoff[:...], \
            htm-stm-lock[:R[:S]], or stm[:N])"
           s)

  let retry_budget = function
    | Polite { retries = None } | Stm_tier { retries = None; _ } -> retries_default
    | Polite { retries = Some n } | Stm_tier { retries = Some n; _ } -> n
    | Backoff { retries; _ } -> retries
end

type t = {
  resolution : Resolution.t;
  capacity : Capacity.t;
  fallback : Fallback.t;
}

let default =
  {
    resolution = Resolution.Requester_wins;
    capacity = Capacity.Unbounded;
    fallback = Fallback.Polite { retries = None };
  }

let make ?(resolution = default.resolution) ?(capacity = default.capacity)
    ?(fallback = default.fallback) () =
  { resolution; capacity; fallback }

let label t =
  String.concat "+"
    [
      Resolution.to_string t.resolution;
      Capacity.to_string t.capacity;
      Fallback.to_string t.fallback;
    ]

let pp fmt t = Format.pp_print_string fmt (label t)
let equal (a : t) (b : t) = a = b
