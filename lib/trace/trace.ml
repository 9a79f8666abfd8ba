open Stx_sim

type entry = { time : int; ev : Machine.event }

type t = {
  n_threads : int;
  capacity : int; (* 0 = unbounded (full capture) *)
  mutable arr : entry array;
  mutable len : int;
  mutable head : int;
  mutable n_dropped : int;
}

let dummy = { time = 0; ev = Machine.Backoff_start { tid = 0 } }

let create ?capacity ~threads () =
  let capacity =
    match capacity with
    | None -> 0
    | Some c ->
      if c <= 0 then invalid_arg "Trace.create: capacity must be positive";
      c
  in
  let initial = if capacity = 0 then 1024 else capacity in
  {
    n_threads = threads;
    capacity;
    arr = Array.make initial dummy;
    len = 0;
    head = 0;
    n_dropped = 0;
  }

let handler t ~time ev =
  let e = { time; ev } in
  if t.capacity = 0 then begin
    if t.len = Array.length t.arr then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.arr 0 bigger 0 t.len;
      t.arr <- bigger
    end;
    t.arr.(t.len) <- e;
    t.len <- t.len + 1
  end
  else if t.len < t.capacity then begin
    t.arr.((t.head + t.len) mod t.capacity) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* ring full: the oldest event makes room *)
    t.arr.(t.head) <- e;
    t.head <- (t.head + 1) mod t.capacity;
    t.n_dropped <- t.n_dropped + 1
  end

let length t = t.len
let dropped t = t.n_dropped
let threads t = t.n_threads

let iter t f =
  let cap = Array.length t.arr in
  for i = 0 to t.len - 1 do
    let e = t.arr.((t.head + i) mod cap) in
    f ~time:e.time e.ev
  done

let events t =
  let acc = ref [] in
  iter t (fun ~time ev -> acc := (time, ev) :: !acc);
  List.rev !acc

(* --- invariant checking ------------------------------------------------ *)

let check t stats =
  if t.n_dropped > 0 then
    Error
      [ Printf.sprintf "%d events dropped by the ring buffer; a truncated stream cannot \
                        be reconciled (use full capture)" t.n_dropped ]
  else
    let c = Check.create ~threads:t.n_threads in
    iter t (Check.handler c);
    Check.finish c stats

(* --- abort attribution ------------------------------------------------- *)

type attribution = {
  agg_matrix : int array array;
  unattributed : int;
  by_line : (int * int) list;
  by_pc : (int * int) list;
  by_ab : (int * int) list;
  conflict_aborts : int;
}

let conflict_lines t =
  let lines = Hashtbl.create 32 in
  iter t (fun ~time:_ ev ->
      match ev with
      | Machine.Tx_abort { kind = Machine.Conflict; conf_line = Some l; _ } ->
        Stx_util.Stat.bump lines l
      | _ -> ());
  Stx_util.Stat.ranked lines

let abort_attribution t =
  let n = t.n_threads in
  let matrix = Array.make_matrix n n 0 in
  let unattributed = ref 0 and total = ref 0 in
  let pcs = Hashtbl.create 32 in
  let abs = Hashtbl.create 8 in
  iter t (fun ~time:_ ev ->
      match ev with
      | Machine.Tx_abort
          { tid; ab; kind = Machine.Conflict; conf_pc; aggressor; _ } ->
        incr total;
        Stx_util.Stat.bump abs ab;
        (match conf_pc with Some pc -> Stx_util.Stat.bump pcs pc | None -> ());
        (match aggressor with
        | Some a when a >= 0 && a < n && tid >= 0 && tid < n ->
          matrix.(a).(tid) <- matrix.(a).(tid) + 1
        | _ -> incr unattributed)
      | _ -> ());
  (* count ties broken by key, so the report is hash-seed independent *)
  let ranked = Stx_util.Stat.ranked in
  {
    agg_matrix = matrix;
    unattributed = !unattributed;
    by_line = conflict_lines t;
    by_pc = ranked pcs;
    by_ab = ranked abs;
    conflict_aborts = !total;
  }

(* --- Chrome trace_event export ----------------------------------------- *)

(* every generated string is ASCII, but stay safe anyway *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json t =
  let b = Buffer.create 65536 in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char b '}'
  in
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let int i = string_of_int i in
  let bool v = if v then "true" else "false" in
  let opt_int = function Some i -> int i | None -> "null" in
  let args fields =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields)
    ^ "}"
  in
  let span (s : Lifecycle.span) ~name a =
    obj
      [
        ("name", str name); ("cat", str "sim"); ("ph", str "X"); ("ts", int s.start);
        ("dur", int (s.stop - s.start)); ("pid", int 0); ("tid", int s.tid);
        ("args", args a);
      ]
  in
  let instant ~name ~ts ~tid ~args:a =
    obj
      [
        ("name", str name); ("cat", str "sim"); ("ph", str "i"); ("ts", int ts);
        ("s", str "t"); ("pid", int 0); ("tid", int tid); ("args", a);
      ]
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  for tid = 0 to t.n_threads - 1 do
    obj
      [
        ("name", str "thread_name"); ("ph", str "M"); ("pid", int 0);
        ("tid", int tid);
        ("args", args [ ("name", str (Printf.sprintf "core %d" tid)) ]);
      ]
  done;
  let attempt s ~ab ~outcome extra =
    span s
      ~name:(Printf.sprintf "ab%d" ab)
      ([ ("attempt", int s.attempt); ("probe", bool s.probe); ("outcome", str outcome) ]
      @ extra)
  in
  let on_span (s : Lifecycle.span) ev =
    match (s.kind, ev) with
    | Lifecycle.Attempt, Machine.Tx_commit { ab; irrevocable; rset; wset; _ } ->
      attempt s ~ab ~outcome:"commit"
        [ ("irrevocable", bool irrevocable); ("rset", int rset); ("wset", int wset) ]
    | Lifecycle.Attempt, Machine.Tx_abort { ab; _ } -> attempt s ~ab ~outcome:"abort" []
    | Lifecycle.Attempt, Machine.Stm_commit { ab; vcycles; rset; wset; _ } ->
      attempt s ~ab ~outcome:"commit"
        [ ("tier", str "stm"); ("vcycles", int vcycles); ("rset", int rset);
          ("wset", int wset) ]
    | Lifecycle.Attempt, Machine.Stm_abort { ab; _ } ->
      attempt s ~ab ~outcome:"abort" [ ("tier", str "stm") ]
    | Lifecycle.Wait, ev ->
      let outcome =
        match ev with
        | Machine.Lock_acquired _ -> "acquired"
        | Machine.Lock_timeout _ -> "timeout"
        | _ -> "abort"
      in
      span s
        ~name:(Printf.sprintf "wait lock%d" s.lock)
        [ ("lock", int s.lock); ("outcome", str outcome) ]
    | Lifecycle.Hold, Machine.Lock_released { committed; _ } ->
      span s
        ~name:(Printf.sprintf "lock%d" s.lock)
        [ ("line", int s.line); ("committed", bool committed) ]
    | Lifecycle.Backoff, _ -> span s ~name:"backoff" []
    | Lifecycle.Request, Machine.Req_done { req; ab; _ } ->
      span s ~name:"request" [ ("req", int req); ("ab", int ab) ]
    | (Lifecycle.Attempt | Lifecycle.Hold | Lifecycle.Request), _ -> ()
  in
  let lc = Lifecycle.create ~on_span () in
  iter t (fun ~time ev ->
      Lifecycle.step lc ~time ev;
      match ev with
      | Machine.Tx_abort { tid; kind; conf_line; conf_pc; aggressor; rset; wset; _ } ->
        instant ~name:"abort" ~ts:time ~tid
          ~args:
            (args
               [
                 ("reason", str (Machine.abort_label kind)); ("victim", int tid);
                 ("aggressor", opt_int aggressor);
                 ("conf_line", opt_int conf_line); ("conf_pc", opt_int conf_pc);
                 ("rset", int rset); ("wset", int wset);
               ])
      | Machine.Stm_abort { tid; kind; vcycles; rset; wset; _ } ->
        instant ~name:"abort" ~ts:time ~tid
          ~args:
            (args
               [
                 ("reason", str (Machine.stm_abort_label kind)); ("victim", int tid);
                 ("vcycles", int vcycles); ("rset", int rset); ("wset", int wset);
               ])
      | Machine.Tx_irrevocable { tid; ab } ->
        instant ~name:"irrevocable" ~ts:time ~tid ~args:(args [ ("ab", int ab) ])
      | Machine.Alp_executed { tid; ab; site; fired } ->
        instant ~name:"alp" ~ts:time ~tid
          ~args:(args [ ("ab", int ab); ("site", int site); ("fired", bool fired) ])
      | _ -> ());
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(* --- raw event codec ---------------------------------------------------- *)

(* One event per line, whitespace-separated, a versioned header up front.
   The Chrome export is for human eyes; this form round-trips, so a capture
   written by one process (stx_run --raw-trace) can be replayed by another
   (stx_repro lint --validate-trace). Option fields print as "-". *)

let codec_magic = "stx-trace"

(* v2 added read/write-set sizes to commit and abort lines; v3 added the
   "capacity" abort kind (bounded-capacity policy overflow); v4 added the
   req-dispatch/req-done lines of request-driven serving runs; v5 added
   the "stmconf" abort kind and the stm-begin/stm-commit/stm-abort lines
   of the software fallback tier *)
let codec_version = 5

let opt = function None -> "-" | Some v -> string_of_int v
let flag b = if b then "1" else "0"

let kind_tag = function
  | Machine.Conflict -> "conflict"
  | Machine.Lock_subscription -> "locksub"
  | Machine.Capacity -> "capacity"
  | Machine.Explicit -> "explicit"
  | Machine.Stm_conflict -> "stmconf"

let stm_kind_tag = function
  | Machine.Stm_validation -> "validation"
  | Machine.Stm_hw_owned -> "hwowned"
  | Machine.Stm_locksub -> "locksub"
  | Machine.Stm_explicit -> "explicit"

let event_line time ev =
  match ev with
  | Machine.Tx_begin { tid; ab; attempt; probe } ->
    Printf.sprintf "%d begin %d %d %d %s" time tid ab attempt (flag probe)
  | Machine.Tx_commit { tid; ab; cycles; irrevocable; rset; wset; probe } ->
    Printf.sprintf "%d commit %d %d %d %s %d %d %s" time tid ab cycles
      (flag irrevocable) rset wset (flag probe)
  | Machine.Tx_abort
      { tid; ab; kind; conf_line; conf_pc; aggressor; cycles; rset; wset; probe }
    ->
    Printf.sprintf "%d abort %d %d %s %s %s %s %d %d %d %s" time tid ab
      (kind_tag kind) (opt conf_line) (opt conf_pc) (opt aggressor) cycles rset
      wset (flag probe)
  | Machine.Tx_irrevocable { tid; ab } ->
    Printf.sprintf "%d irrevocable %d %d" time tid ab
  | Machine.Alp_executed { tid; ab; site; fired } ->
    Printf.sprintf "%d alp %d %d %d %s" time tid ab site (flag fired)
  | Machine.Lock_attempt { tid; lock; line } ->
    Printf.sprintf "%d lock-attempt %d %d %d" time tid lock line
  | Machine.Lock_acquired { tid; lock; line } ->
    Printf.sprintf "%d lock-acquired %d %d %d" time tid lock line
  | Machine.Lock_released { tid; lock; committed } ->
    Printf.sprintf "%d lock-released %d %d %s" time tid lock (flag committed)
  | Machine.Lock_waiting { tid; lock } ->
    Printf.sprintf "%d lock-waiting %d %d" time tid lock
  | Machine.Lock_timeout { tid; lock } ->
    Printf.sprintf "%d lock-timeout %d %d" time tid lock
  | Machine.Backoff_start { tid } -> Printf.sprintf "%d backoff-start %d" time tid
  | Machine.Backoff_end { tid } -> Printf.sprintf "%d backoff-end %d" time tid
  | Machine.Req_dispatch { tid; req; ab } ->
    Printf.sprintf "%d req-dispatch %d %d %d" time tid req ab
  | Machine.Req_done { tid; req; ab } ->
    Printf.sprintf "%d req-done %d %d %d" time tid req ab
  | Machine.Stm_begin { tid; ab; attempt } ->
    Printf.sprintf "%d stm-begin %d %d %d" time tid ab attempt
  | Machine.Stm_commit { tid; ab; cycles; vcycles; rset; wset } ->
    Printf.sprintf "%d stm-commit %d %d %d %d %d %d" time tid ab cycles vcycles
      rset wset
  | Machine.Stm_abort { tid; ab; kind; cycles; vcycles; rset; wset } ->
    Printf.sprintf "%d stm-abort %d %d %s %d %d %d %d" time tid ab
      (stm_kind_tag kind) cycles vcycles rset wset

let write_events ?(meta = []) t oc =
  Printf.fprintf oc "%s %d\n" codec_magic codec_version;
  Printf.fprintf oc "threads %d\n" t.n_threads;
  Printf.fprintf oc "dropped %d\n" t.n_dropped;
  List.iter
    (fun (k, v) ->
      if String.contains k ' ' || String.contains k '\n' || String.contains v '\n' then
        invalid_arg "Trace.write_events: meta keys/values must be line-safe";
      Printf.fprintf oc "meta %s %s\n" k v)
    meta;
  Printf.fprintf oc "events %d\n" t.len;
  iter t (fun ~time ev -> output_string oc (event_line time ev ^ "\n"))

exception Codec_error of string

let codec_fail fmt = Printf.ksprintf (fun s -> raise (Codec_error s)) fmt

(* Every field is a non-negative count, time or id, and thread and
   aggressor ids stay below the capture's thread count, so a consumer may
   index per-thread arrays with them. *)
let parse_event ~threads line lineno =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let num s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> v
    | _ -> codec_fail "line %d: expected a non-negative integer, got %S" lineno s
  in
  let below what bound s =
    let v = num s in
    if v >= bound then codec_fail "line %d: %s %d out of range 0..%d" lineno what v (bound - 1);
    v
  in
  let thread = below "thread" threads in
  let num_opt s = if s = "-" then None else Some (num s) in
  let agg s = if s = "-" then None else Some (below "aggressor" threads s) in
  let bool s =
    match s with
    | "0" -> false
    | "1" -> true
    | _ -> codec_fail "line %d: expected a 0/1 flag, got %S" lineno s
  in
  let kind s =
    match s with
    | "conflict" -> Machine.Conflict
    | "locksub" -> Machine.Lock_subscription
    | "capacity" -> Machine.Capacity
    | "explicit" -> Machine.Explicit
    | "stmconf" -> Machine.Stm_conflict
    | _ -> codec_fail "line %d: unknown abort kind %S" lineno s
  in
  let stm_kind s =
    match s with
    | "validation" -> Machine.Stm_validation
    | "hwowned" -> Machine.Stm_hw_owned
    | "locksub" -> Machine.Stm_locksub
    | "explicit" -> Machine.Stm_explicit
    | _ -> codec_fail "line %d: unknown software abort kind %S" lineno s
  in
  match fields with
  | time :: "begin" :: [ tid; ab; attempt; probe ] ->
    ( num time,
      Machine.Tx_begin
        { tid = thread tid; ab = num ab; attempt = num attempt; probe = bool probe } )
  | time :: "commit" :: [ tid; ab; cycles; irrevocable; rset; wset; probe ] ->
    ( num time,
      Machine.Tx_commit
        {
          tid = thread tid;
          ab = num ab;
          cycles = num cycles;
          irrevocable = bool irrevocable;
          rset = num rset;
          wset = num wset;
          probe = bool probe;
        } )
  | time
    :: "abort"
    :: [ tid; ab; k; conf_line; conf_pc; aggressor; cycles; rset; wset; probe ]
    ->
    ( num time,
      Machine.Tx_abort
        {
          tid = thread tid;
          ab = num ab;
          kind = kind k;
          conf_line = num_opt conf_line;
          conf_pc = num_opt conf_pc;
          aggressor = agg aggressor;
          cycles = num cycles;
          rset = num rset;
          wset = num wset;
          probe = bool probe;
        } )
  | time :: "irrevocable" :: [ tid; ab ] ->
    (num time, Machine.Tx_irrevocable { tid = thread tid; ab = num ab })
  | time :: "alp" :: [ tid; ab; site; fired ] ->
    ( num time,
      Machine.Alp_executed
        { tid = thread tid; ab = num ab; site = num site; fired = bool fired } )
  | time :: "lock-attempt" :: [ tid; lock; line ] ->
    ( num time,
      Machine.Lock_attempt { tid = thread tid; lock = num lock; line = num line } )
  | time :: "lock-acquired" :: [ tid; lock; line ] ->
    ( num time,
      Machine.Lock_acquired { tid = thread tid; lock = num lock; line = num line } )
  | time :: "lock-released" :: [ tid; lock; committed ] ->
    ( num time,
      Machine.Lock_released
        { tid = thread tid; lock = num lock; committed = bool committed } )
  | time :: "lock-waiting" :: [ tid; lock ] ->
    (num time, Machine.Lock_waiting { tid = thread tid; lock = num lock })
  | time :: "lock-timeout" :: [ tid; lock ] ->
    (num time, Machine.Lock_timeout { tid = thread tid; lock = num lock })
  | time :: "backoff-start" :: [ tid ] ->
    (num time, Machine.Backoff_start { tid = thread tid })
  | time :: "backoff-end" :: [ tid ] ->
    (num time, Machine.Backoff_end { tid = thread tid })
  | time :: "req-dispatch" :: [ tid; req; ab ] ->
    (num time, Machine.Req_dispatch { tid = thread tid; req = num req; ab = num ab })
  | time :: "req-done" :: [ tid; req; ab ] ->
    (num time, Machine.Req_done { tid = thread tid; req = num req; ab = num ab })
  | time :: "stm-begin" :: [ tid; ab; attempt ] ->
    ( num time,
      Machine.Stm_begin { tid = thread tid; ab = num ab; attempt = num attempt } )
  | time :: "stm-commit" :: [ tid; ab; cycles; vcycles; rset; wset ] ->
    ( num time,
      Machine.Stm_commit
        {
          tid = thread tid;
          ab = num ab;
          cycles = num cycles;
          vcycles = num vcycles;
          rset = num rset;
          wset = num wset;
        } )
  | time :: "stm-abort" :: [ tid; ab; k; cycles; vcycles; rset; wset ] ->
    ( num time,
      Machine.Stm_abort
        {
          tid = thread tid;
          ab = num ab;
          kind = stm_kind k;
          cycles = num cycles;
          vcycles = num vcycles;
          rset = num rset;
          wset = num wset;
        } )
  | _ -> codec_fail "line %d: unparseable event %S" lineno line

let read_events ~file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      let next () =
        incr lineno;
        match input_line ic with
        | l -> l
        | exception End_of_file -> codec_fail "line %d: unexpected end of file" !lineno
      in
      (match String.split_on_char ' ' (next ()) with
      | [ magic; v ] when magic = codec_magic ->
        if int_of_string_opt v <> Some codec_version then
          codec_fail "unsupported %s version %s (expected %d)" codec_magic v
            codec_version
      | _ -> codec_fail "not an %s capture" codec_magic);
      let threads =
        match String.split_on_char ' ' (next ()) with
        | [ "threads"; n ] -> (
          (* bounded by the simulator's own core limit: consumers size
             per-thread state from this header *)
          match int_of_string_opt n with
          | Some n when n > 0 && n <= Stx_htm.Htm.max_cores -> n
          | Some n when n > 0 ->
            codec_fail "threads %d out of range 1..%d" n Stx_htm.Htm.max_cores
          | _ -> codec_fail "bad threads header")
        | _ -> codec_fail "missing threads header"
      in
      let dropped =
        match String.split_on_char ' ' (next ()) with
        | [ "dropped"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> n
          | _ -> codec_fail "bad dropped header")
        | _ -> codec_fail "missing dropped header"
      in
      let meta = ref [] in
      let rec header () =
        let line = next () in
        match String.split_on_char ' ' line with
        | "meta" :: k :: rest ->
          meta := (k, String.concat " " rest) :: !meta;
          header ()
        | [ "events"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> n
          | _ -> codec_fail "bad events header")
        | _ -> codec_fail "line %d: expected meta or events header" !lineno
      in
      let count = header () in
      let t = create ~threads () in
      for _ = 1 to count do
        let line = next () in
        let time, ev = parse_event ~threads line !lineno in
        handler t ~time ev
      done;
      t.n_dropped <- dropped;
      (t, List.rev !meta))
