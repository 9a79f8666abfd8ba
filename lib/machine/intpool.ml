(* Domain-local recycling for the simulator's large int arrays.

   Every [Machine.run] builds a cache hierarchy and HTM index of several
   hundred thousand words that die with the run; under repeated runs
   (the benchmark, the serve sweep) that is multiple megabytes of
   major-heap churn per simulated run, and GC marking of the corpses
   shows up as a double-digit share of short-workload wall time.  The
   pool keeps retired arrays on a per-domain free list keyed by length,
   so the next run re-fills in place instead of allocating.

   Per-domain (Domain.DLS) because the harness runs machines in a
   domain pool: no locks, and an array never migrates between domains
   within one run.  Releasing is optional everywhere — an exceptional
   exit simply leaks the array to the GC, which is the old behaviour. *)

let max_per_size = 8

type slot = { mutable arrays : int array list; mutable n : int }

let pool : (int, slot) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

(* An array of [len] filled with [fill]: recycled when one of exactly
   this length is pooled, fresh otherwise. *)
let acquire ~len ~fill =
  if len <= 0 then Array.make (max len 0) fill
  else
    let tbl = Domain.DLS.get pool in
    match Hashtbl.find_opt tbl len with
    | Some ({ arrays = a :: rest; _ } as s) ->
      s.arrays <- rest;
      s.n <- s.n - 1;
      Array.fill a 0 len fill;
      a
    | Some _ | None -> Array.make len fill

(* Hand [a] back for reuse.  The caller promises nothing else reads or
   writes [a] afterwards. *)
let release a =
  let len = Array.length a in
  if len > 0 then begin
    let tbl = Domain.DLS.get pool in
    match Hashtbl.find_opt tbl len with
    | Some s ->
      if s.n < max_per_size then begin
        s.arrays <- a :: s.arrays;
        s.n <- s.n + 1
      end
    | None -> Hashtbl.add tbl len { arrays = [ a ]; n = 1 }
  end
