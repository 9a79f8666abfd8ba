(* Process-level GC pressure, stamped into a registry snapshot at export
   time.

   Deliberately not recorded by [Collect] during the run: the online
   collector and the trace-replay collector are compared for exact
   registry equality, and process-wide GC totals necessarily differ
   between those two executions. Stamping the copy that leaves the
   process keeps that invariant while still shipping GC pressure through
   the JSON snapshot like every other series.

   [Gc.quick_stat]'s minor words count the calling domain only up to its
   last minor collection, so the minor heap is flushed first; without
   that a snapshot undercounts by up to one minor heap. The major
   collection count stays timing-dependent: it depends on when the
   runtime's major slices happened to complete. *)

let stamp reg =
  (* merge with an empty registry: a fresh copy, the caller's registry
     stays comparable *)
  let out = Registry.merge reg (Registry.create ()) in
  Gc.minor ();
  let s = Gc.quick_stat () in
  Registry.inc out ~by:(int_of_float s.Gc.minor_words) "stx_gc_minor_words" [];
  Registry.inc out ~by:s.Gc.major_collections "stx_gc_major_collections" [];
  out
