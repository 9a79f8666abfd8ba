open Stx_core
open Stx_sim
open Stx_workloads

(** The open-loop serving harness.

    Closed-loop runs ({!Workload.spec}) measure throughput with every
    core saturated by construction; latency under them is meaningless.
    This driver instead offers the machine a request stream generated by
    a seeded {!Arrival} process — each request timestamped on the
    simulated clock at generation ("enqueue"), dispatched to the first
    core that polls the machine's injector at or after that time, and
    completed when its transaction commits. The three timestamps give
    per-request waiting, service and sojourn time, folded into
    {!Stx_metrics} histograms, which is what the SLO story of staggering
    needs: advisory locks trade a little throughput for a collapse of
    the abort-driven tail.

    A run is split into [shards] independent sub-runs fanned out over
    the {!Stx_runner.Pool} and merged in shard order. [Seed] sharding
    gives each shard the full key range at [1/shards] of the offered
    rate with its own derived seed (variance reduction); [Key] sharding
    partitions the key space into contiguous slices and routes each
    request of one full-rate stream to its owning shard, the way a
    sharded store scales out — skewed keys then load shards unevenly.
    The shard count and mode are part of the experiment's identity;
    [?jobs] only parallelizes, so results are bit-for-bit identical for
    any jobs value. *)

type shard_by = Seed | Key

val shard_by_to_string : shard_by -> string
val shard_by_of_string : string -> (shard_by, string) result

type config = {
  service : Workload.service;
  mode : Mode.t;
  htm_policy : Stx_policy.t;
  threads : int;  (** cores per shard *)
  seed : int;
  arrival : Arrival.t;  (** total offered process, before shard thinning *)
  keys : Keys.t;
  pct_get : int;  (** read share of the mix, 0..100 *)
  key_range : int option;  (** [None] uses the service's default *)
  horizon : int;  (** cycles during which requests arrive *)
  shards : int;
  shard_by : shard_by;
  telemetry_window : int option;
      (** collect a {!Stx_telemetry.Series.t} at this window width
          (cycles); [None] (the default) skips collection entirely *)
}

val config :
  ?mode:Mode.t ->
  ?htm_policy:Stx_policy.t ->
  ?threads:int ->
  ?seed:int ->
  ?keys:Keys.t ->
  ?pct_get:int ->
  ?key_range:int ->
  ?horizon:int ->
  ?shards:int ->
  ?shard_by:shard_by ->
  ?telemetry_window:int ->
  arrival:Arrival.t ->
  Workload.service ->
  config
(** Defaults: Staggered mode, {!Stx_policy.default}, 16 threads, seed 1,
    uniform keys, 70% gets, horizon 100_000 cycles, 2 shards, seed
    sharding, no telemetry. *)

type report = {
  requests : int;  (** offered (= completed; the run drains the queue) *)
  makespan : int;  (** max shard makespan, cycles *)
  offered : float;  (** requests per kilocycle offered *)
  achieved : float;  (** requests per kilocycle sustained to completion *)
  saturated : bool;  (** achieved fell below 90% of offered *)
  stats : Stats.t;  (** merged simulator statistics *)
  registry : Stx_metrics.Registry.t;
      (** merged metrics: each shard's {!Stx_metrics.Collect.export}
          plus the serving plane — [stx_req_sojourn_cycles] /
          [stx_req_wait_cycles] / [stx_req_service_cycles] histograms,
          [stx_req_queue_depth] at dispatch (gauge
          [stx_req_queue_depth_max]), [stx_req_offered] /
          [stx_req_completed] counters, and per-core
          [stx_req_busy_cycles{core=N}] *)
  telemetry : Stx_telemetry.Series.t option;
      (** present iff [telemetry_window] was set: per-shard series
          (each padded to the arrival horizon) merged in shard order,
          so like everything else here it is independent of [jobs] *)
  errors : string list;
      (** reconciliation divergences: serving-plane invariants (every
          request dispatched once and completed after dispatch), then
          the online {!Stx_trace.Check} verdict (request brackets
          included) and {!Stx_metrics.Collect.check}, per shard; [[]] on
          a clean run *)
}

val run : ?jobs:int -> config -> report
(** Deterministic for a given config; [jobs] never affects the result.
    Raises [Failure] if a shard simulation dies. *)

val sojourn : report -> Stx_metrics.Hist.t option
(** The merged sojourn-latency histogram ([stx_req_sojourn_cycles]). *)

val occupancy : report -> float
(** Mean busy fraction across cores and shards: total request service
    cycles over [threads * shards * makespan]; 0 on an empty run. *)

val render : config -> report -> string
(** Human-readable block: offered vs achieved, sojourn/wait/service
    quantiles, queue depth, occupancy, saturation flag. *)
