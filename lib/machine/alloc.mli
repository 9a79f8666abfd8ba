(** Bump allocator over the simulated memory.

    Allocation is per-thread-arena'd: each thread bump-allocates out of its
    own chunk, so objects of different threads never share a cache line.
    This mirrors the paper's use of the Lockless allocator "to avoid the
    potential contention bottleneck in the default glibc memory allocator".
    Objects are aligned to cache-line boundaries by default so that HTM
    line-granularity conflicts coincide with object-granularity conflicts
    (the paper's data-structure-node assumption in §3.1). *)

type t

val create :
  ?arena_words:int -> ?line_align:bool -> words_per_line:int -> Memory.t -> t

val alloc : t -> thread:int -> int -> Memory.addr
(** [alloc t ~thread n] returns the address of [n] fresh zeroed words owned
    by [thread]. Raises [Invalid_argument] if [n <= 0]. *)

val alloc_shared : t -> int -> Memory.addr
(** Allocate from a common arena (for structures built during single-threaded
    setup). *)
