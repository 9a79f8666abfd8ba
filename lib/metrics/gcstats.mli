(** GC pressure as registry series, added when a snapshot is exported.

    The two series are cumulative process totals from [Gc.quick_stat]:

    - [stx_gc_minor_words] — words allocated on the minor heap, read
      after a minor collection so the words still in the minor heap
      count
    - [stx_gc_major_collections] — completed major collection cycles,
      which depends on when the runtime's major slices ran

    They are stamped at export time rather than during collection so the
    online and trace-replay registries remain exactly equal (the
    reconciliation {!Collect} relies on). *)

val stamp : Registry.t -> Registry.t
(** A fresh copy of the registry with both GC counters added; the
    argument is not modified. *)
