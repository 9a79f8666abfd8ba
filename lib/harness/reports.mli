open Stx_workloads

(** The evaluation reports: one function per table/figure of the paper,
    each rendering an ASCII reproduction from a shared {!Exp} context. *)

val table1 : Exp.t -> string
(** Table 1: HTM contention in representative benchmarks — speedup S, %
    of txns forced irrevocable, wasted/useful cycle ratio, contention
    source, locality of contention addresses (LA) and PCs (LP). *)

val table2 : unit -> string
(** Table 2: the simulated machine configuration. *)

val table3 : Exp.t -> string
(** Table 3: static and dynamic instrumentation statistics and anchor
    identification accuracy, plus the §6.1 naive-instrumentation
    comparison. *)

val table4 : Exp.t -> string
(** Table 4: benchmark characteristics. *)

val granularity : Exp.t -> string
(** Whole-transaction scheduling (Tx_sched, the Proactive-Transaction-
    Scheduling comparison of §7) vs staggered partial serialization —
    Result 2's "more parallelism" claim. *)

val fig1 : unit -> string
(** Figure 1: the staggering schematic, reconstructed as ASCII timelines
    from real baseline and staggered runs of a mid-transaction-conflict
    scenario. *)

val fig7 : Exp.t -> string
(** Figure 7: performance at 16 threads normalized to the baseline HTM for
    AddrOnly / Staggered+SW / Staggered, with the harmonic-mean summary. *)

val fig7_repeated : ?seeds:int list -> Exp.t -> string
(** Figure 7 averaged over several seeds (default 1–5), with the spread —
    the paper's repeat-5-times methodology. Each seed runs in a fresh
    context with the given context's scale, threads, jobs and policy
    bundle; the context's own seed is not used. *)

val fig8 : Exp.t -> string
(** Figure 8: (a) aborts per commit and (b) wasted/useful cycles, baseline
    vs Staggered. *)

val anchor_tables : Workload.t -> string
(** Figure 3-style dump of a benchmark's unified anchor tables. *)

val hotspots : Exp.t -> Workload.t -> string * string list
(** The most frequent conflicting lines and PC tags of a baseline run —
    the raw signal behind Table 1's LA/LP columns and the policy's
    decisions — read from the run's full capture, and the run's
    {!Exp.failures}. *)

val scaling : Exp.t -> Workload.t -> string
(** Thread-count sweep (1..16) for baseline and Staggered — the curves
    behind the S column. *)

val profile : Exp.t -> Workload.t -> string * string list
(** Per-atomic-block phase profile of one benchmark under every runtime
    mode: committed transaction cycles split at the first advisory-lock
    acquire into speculative prefix, lock wait and serialized suffix
    (plus irrevocable, wasted and backoff cycles), with the latency and
    retry distributions beneath. The paper's core claim made visible:
    the baseline serializes nothing (no suffix), staggered modes
    serialize only the conflicting portion. Its four cells run apart
    from the memo, each with a metrics collector, on [Exp.jobs] domains;
    the list holds every cell's {!Exp.failures}, prefixed with its mode. *)

val profile_tsv : Exp.t -> Workload.t -> string * string list
(** The same phase-cycle cells as {!profile}, machine-readable: a
    header row then one tab-separated row per (mode, atomic block),
    free-form cells escaped with {!Stx_analysis.Diag.tsv_escape} so the
    file shares the lint TSV's conventions. *)

val ab_name : Workload.t -> int -> string
(** An atomic block's ["ID:NAME"], or the bare id when the workload has
    no such block. *)

(** {2 Prefetch cells}

    The memo cells each report reads, for handing to {!Exp.prefetch}
    (and thus the domain pool) before rendering. Prefetching is purely a
    performance hint: a report renders identically without it, running
    each missing cell on demand. *)

val table1_cells : Exp.t -> Exp.cell list
val table3_cells : Exp.t -> Exp.cell list
val table4_cells : Exp.t -> Exp.cell list
val fig7_cells : Exp.t -> Exp.cell list
val fig8_cells : Exp.t -> Exp.cell list
val granularity_cells : Exp.t -> Exp.cell list
val scaling_cells : Exp.t -> Workload.t -> Exp.cell list
