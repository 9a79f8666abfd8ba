type arena = { mutable cursor : Memory.addr; mutable limit : Memory.addr }

type t = {
  memory : Memory.t;
  arena_words : int;
  words_per_line : int;
  mutable wilderness : Memory.addr; (* next never-used address *)
  (* slot [thread + 1] (0 = shared): a flat array instead of a Hashtbl so
     the per-simulated-alloc lookup neither hashes nor allocates a [Some] *)
  mutable arenas : arena option array;
}

let create ?(arena_words = 4096) ~words_per_line memory =
  {
    memory;
    arena_words;
    words_per_line;
    (* start on a line boundary past the null word *)
    wilderness = words_per_line;
    arenas = Array.make 32 None;
  }

let round_up t n = (n + t.words_per_line - 1) / t.words_per_line * t.words_per_line

let fresh_arena t =
  let base = t.wilderness in
  t.wilderness <- t.wilderness + t.arena_words;
  (* touch the last word so the memory high-water mark covers the arena *)
  Memory.store t.memory (t.wilderness - 1) 0;
  { cursor = base; limit = t.wilderness }

let arena_for t thread =
  let i = thread + 1 in
  if i >= Array.length t.arenas then begin
    let nu = Array.make (max (2 * Array.length t.arenas) (i + 1)) None in
    Array.blit t.arenas 0 nu 0 (Array.length t.arenas);
    t.arenas <- nu
  end;
  match t.arenas.(i) with
  | Some a -> a
  | None ->
    let a = fresh_arena t in
    t.arenas.(i) <- Some a;
    a

let alloc_in t arena n =
  let n = round_up t n in
  if arena.cursor + n > arena.limit then begin
    (* a request larger than the arena gets a dedicated chunk *)
    if n >= t.arena_words then begin
      let base = t.wilderness in
      t.wilderness <- t.wilderness + n;
      Memory.store t.memory (t.wilderness - 1) 0;
      base
    end
    else begin
      let fresh = fresh_arena t in
      arena.cursor <- fresh.cursor;
      arena.limit <- fresh.limit;
      let base = arena.cursor in
      arena.cursor <- arena.cursor + n;
      base
    end
  end
  else begin
    let base = arena.cursor in
    arena.cursor <- arena.cursor + n;
    base
  end

let alloc t ~thread n =
  if n <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  alloc_in t (arena_for t thread) n

let alloc_shared t n =
  if n <= 0 then invalid_arg "Alloc.alloc_shared: size must be positive";
  alloc_in t (arena_for t (-1)) n
