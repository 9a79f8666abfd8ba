type tier = Htm | Stm | Lock

type t =
  | Saturation of { onset : int }
  | Conflict_storm of {
      first : int;
      last : int;
      aborts : int;
      peak : int;
      line : int option;
      pc : int option;
    }
  | Tier_shift of { window : int; from_ : tier; to_ : tier }

let tier_name = function Htm -> "htm" | Stm -> "stm" | Lock -> "lock"

(* --- saturation ------------------------------------------------------- *)

(* A window "misses" when completions by its end sit under 90% of the
   arrivals through the END OF THE PREVIOUS window. Cumulative counts
   (not per-window ones) make a growing backlog — the actual signature
   of saturation — monotone in the comparison, and the one-window grace
   absorbs the arrival-to-completion pipeline lag a healthy run always
   shows. Only the loaded portion of the run is judged: the open-loop
   harness drains its queue after the arrival horizon, so the tail
   always catches up eventually and says nothing about saturation.
   Onset is the first miss of the unbroken miss run ending at the last
   arrival window. *)
let saturation (s : Series.t) =
  let n = Array.length s.windows in
  let coff = Array.make (max 1 n) 0 and ccomp = Array.make (max 1 n) 0 in
  let off = ref 0 and comp = ref 0 in
  for i = 0 to n - 1 do
    off := !off + Series.get s.windows.(i) Series.offered;
    comp := !comp + Series.get s.windows.(i) Series.completed;
    coff.(i) <- !off;
    ccomp.(i) <- !comp
  done;
  let last_off = ref (-1) in
  for i = 0 to n - 1 do
    if Series.get s.windows.(i) Series.offered > 0 then last_off := i
  done;
  let misses i =
    let due = if i = 0 then 0 else coff.(i - 1) in
    due > 0 && 10 * ccomp.(i) < 9 * due
  in
  let onset = ref None in
  (try
     for i = !last_off downto 0 do
       if misses i then onset := Some i else raise Exit
     done
   with Exit -> ());
  match !onset with Some i -> [ Saturation { onset = i } ] | None -> []

(* --- conflict storms -------------------------------------------------- *)

let conflicts w = Series.get w Series.conflict_aborts

let storm_threshold (s : Series.t) =
  let total = ref 0 and nz = ref 0 in
  Array.iter
    (fun w ->
      if conflicts w > 0 then begin
        total := !total + conflicts w;
        incr nz
      end)
    s.windows;
  if !nz = 0 then 4 else max 4 (2 * !total / !nz)

let storms ~threshold (s : Series.t) =
  let n = Array.length s.windows in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if conflicts s.windows.(!i) >= threshold then begin
      let first = !i in
      let j = ref !i in
      while !j + 1 < n && conflicts s.windows.(!j + 1) >= threshold do
        incr j
      done;
      let last = !j in
      let aborts = ref 0 and peak = ref 0 in
      let lines = Hashtbl.create 8 and pcs = Hashtbl.create 8 in
      for k = first to last do
        let w = s.windows.(k) in
        aborts := !aborts + conflicts w;
        if conflicts w > !peak then peak := conflicts w;
        Stx_util.Stat.merge_into lines w.conf_lines;
        Stx_util.Stat.merge_into pcs w.conf_pcs
      done;
      out :=
        Conflict_storm
          {
            first;
            last;
            aborts = !aborts;
            peak = !peak;
            line = Option.map fst (Stx_util.Stat.top lines);
            pc = Option.map fst (Stx_util.Stat.top pcs);
          }
        :: !out;
      i := last + 1
    end
    else incr i
  done;
  List.rev !out

(* --- tier shifts ------------------------------------------------------ *)

(* Dominant tier of a busy window by occupancy cycles; ties resolve
   htm > stm > lock so a pure-HTM run never reports a shift. *)
let dominant_tier (w : Series.window) =
  if Series.busy_total w = 0 then None
  else
    let htm = Series.htm_cycles w in
    let stm = Series.get w Series.stm_cycles in
    let lock = Series.get w Series.lock_cycles in
    if htm >= stm && htm >= lock then Some Htm
    else if stm >= lock then Some Stm
    else Some Lock

let tier_shifts (s : Series.t) =
  let out = ref [] in
  let prev = ref None in
  Array.iteri
    (fun i w ->
      match dominant_tier w with
      | None -> ()
      | Some tier ->
        (match !prev with
        | Some from_ when from_ <> tier ->
          out := Tier_shift { window = i; from_; to_ = tier } :: !out
        | _ -> ());
        prev := Some tier)
    s.windows;
  List.rev !out

(* --- driver ----------------------------------------------------------- *)

let onset = function
  | Saturation { onset } -> onset
  | Conflict_storm { first; _ } -> first
  | Tier_shift { window; _ } -> window

let rank = function Saturation _ -> 0 | Conflict_storm _ -> 1 | Tier_shift _ -> 2

let detect ?storm_threshold:thr (s : Series.t) =
  let threshold = match thr with Some t -> t | None -> storm_threshold s in
  saturation s @ storms ~threshold s @ tier_shifts s
  |> List.stable_sort (fun a b ->
         match compare (onset a) (onset b) with
         | 0 -> compare (rank a) (rank b)
         | c -> c)

let to_string (s : Series.t) = function
  | Saturation { onset } ->
    Printf.sprintf "saturation onset at window %d (cycle %d): achieved < 90%% of offered from here on"
      onset (onset * s.width)
  | Conflict_storm { first; last; aborts; peak; line; pc } ->
    let opt name = function
      | Some id -> Printf.sprintf ", dominant %s %d" name id
      | None -> ""
    in
    Printf.sprintf
      "conflict storm windows %d-%d (cycles %d-%d): %d conflict aborts, peak %d/window%s%s"
      first last (first * s.width) (((last + 1) * s.width) - 1) aborts peak
      (opt "line" line) (opt "pc" pc)
  | Tier_shift { window; from_; to_ } ->
    Printf.sprintf "tier shift at window %d (cycle %d): %s -> %s" window
      (window * s.width) (tier_name from_) (tier_name to_)
