(** Mergeable log₂-bucketed histograms over non-negative integers.

    Bucket 0 holds the value 0 exactly; bucket [k >= 1] holds the range
    [2^(k-1) .. 2^k - 1], so boundaries are powers of two and a value's
    bucket is its bit width. Count, sum, min, max and a per-bucket max are
    tracked exactly; quantiles resolve to the largest value actually
    observed in the covering bucket, which makes them deterministic,
    monotone in the requested rank, always an observed value, and never
    more than one bucket (a factor of two) above the true nearest-rank
    order statistic.

    {!merge} is associative and commutative and builds a fresh value, the
    same discipline as [Stats.merge], so sharded runs aggregate to the
    same histogram regardless of grouping. *)

type t

val create : unit -> t
val is_empty : t -> bool

val add : t -> int -> unit
(** Record one observation. Raises [Invalid_argument] on a negative
    value: every quantity we histogram (cycles, sizes, retries) is a
    count, and a negative one is an instrumentation bug upstream. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Smallest recorded value; 0 on an empty histogram. *)

val max_value : t -> int
(** Largest recorded value; 0 on an empty histogram. *)

val mean : t -> float
(** Exact ([sum]/[count]); 0 on an empty histogram. *)

val quantile : t -> float -> int
(** [quantile t q] for [0 <= q <= 1] by nearest rank over the buckets,
    reported as the largest observed value in the rank's bucket — always
    a value that was actually added; 0 on an empty histogram. Raises
    [Invalid_argument] outside [0,1]. *)

val p50 : t -> int
val p99 : t -> int

val merge : t -> t -> t
(** Fresh combined histogram; the arguments are not mutated. *)

val buckets_full : t -> (int * int * int) list
(** Non-empty buckets as [(index, count, observed_max)], index ascending;
    the serialization shape. *)

val json_fields : t -> (string * Json.t) list
(** [count], [sum], [min], [max] and [buckets] ({!buckets_full} as
    triples): the histogram's fields in the metrics snapshot and the
    telemetry JSONL. *)

val bucket_index : int -> int
(** The bucket a value falls into: 0 for 0, bit width otherwise. *)

val bucket_lower : int -> int
(** Smallest value of a bucket: 0 for bucket 0, [2^(k-1)] for [k >= 1]. *)

val bucket_upper : int -> int
(** Largest value of a bucket: 0 for bucket 0, [2^k - 1] for [k >= 1]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
