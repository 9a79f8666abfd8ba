(** Streaming statistics accumulators and summary helpers used by the
    simulator's bookkeeping and the experiment harness. *)

type t
(** A running accumulator over a stream of float observations
    (Welford's algorithm: numerically stable mean/variance). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the observations; 0 if empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
(** Smallest observation; [infinity] if empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] if empty. *)

val total : t -> float

val harmonic_mean : float list -> float
(** Harmonic mean of positive values (the paper summarizes speedup
    improvements this way); 0 on the empty list. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val ratio : int -> int -> float
(** [ratio num den] is [num /. den], or 0 when [den = 0]. *)

val percent : int -> int -> float
(** [percent part whole] in 0..100; 0 when [whole = 0]. *)

val ranked : ('k, int) Hashtbl.t -> ('k * int) list
(** A frequency table as a ranking: count descending, count ties broken
    by key ascending (polymorphic compare — keys are ints or strings in
    practice). [Hashtbl.fold] order varies with the hash seed and the
    OCaml version, so every report that prints a ranking must come
    through here to stay byte-stable. *)

(** {2 Tallies}

    Integer frequency tables ([id -> count]): Table 1's conflicting lines
    and PCs, and the per-window tallies of the telemetry series. Counting
    a key already present allocates nothing. *)

val bump : (int, int) Hashtbl.t -> int -> unit
(** One more occurrence of a key. *)

val merge_into : (int, int) Hashtbl.t -> (int, int) Hashtbl.t -> unit
(** [merge_into dst src] adds every count of [src] into [dst]. *)

val top : (int, int) Hashtbl.t -> (int * int) option
(** The most frequent key with its count, ties to the lower key, so the
    choice is a function of the tally alone; [None] when empty. *)

val by_key : (int, int) Hashtbl.t -> (int * int) list
(** The tally as [(key, count)] pairs, key ascending. *)
