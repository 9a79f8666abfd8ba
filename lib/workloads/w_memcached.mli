(** The memcached benchmark. See the implementation header and DESIGN.md for the
    contention signature and the fidelity notes of this port. *)

type params = {
  nbuckets : int;  (** hash-table buckets *)
  key_range : int;  (** keys are drawn from [1 .. key_range] *)
  total_ops : int;  (** closed-loop op budget, split across threads *)
  pct_get : int;  (** closed-loop get percentage (the rest are sets) *)
}

val default_params : params
(** The paper's configuration: 64 buckets, 512 keys, 2048 ops, 70% gets. *)

val bench_with : params -> Workload.t
(** The closed-loop benchmark under explicit parameters. *)

val bench : Workload.t
(** [bench_with default_params]. *)

val service : Workload.service
(** The open-loop service: get/set requests against the same hash table
    and statistics block as {!bench}. *)
