type t = {
  cores : int;
  words_per_line : int;
  l1_lines : int;
  l1_ways : int;
  l1_latency : int;
  l2_lines : int;
  l2_ways : int;
  l2_latency : int;
  l3_lines : int;
  l3_ways : int;
  l3_latency : int;
  mem_latency : int;
  pc_tag_bits : int;
  commit_cost : int;
  abort_cost : int;
  handler_cost : int;
  alp_inactive_cost : int;
  spin_recheck_cost : int;
  backoff_base : int;
  lazy_htm : bool;
}

let default =
  {
    cores = 16;
    words_per_line = 8;
    (* 64 KB / 64 B = 1024 lines; 1 MB = 16384; 8 MB = 131072 *)
    l1_lines = 1024;
    l1_ways = 8;
    l1_latency = 2;
    l2_lines = 16384;
    l2_ways = 8;
    l2_latency = 10;
    l3_lines = 131072;
    l3_ways = 8;
    l3_latency = 30;
    mem_latency = 125;
    pc_tag_bits = 12;
    commit_cost = 10;
    abort_cost = 50;
    handler_cost = 100;
    alp_inactive_cost = 1;
    spin_recheck_cost = 20;
    backoff_base = 50;
    lazy_htm = false;
  }

let with_cores cores t = { t with cores }

let pp ppf t =
  let lines_kb n = n * t.words_per_line * 8 / 1024 in
  Format.fprintf ppf
    "@[<v>CPU cores   %d, in-order 1-op issue (simulated)@,\
     L1 cache    private, %d KB, %d-way, %d-byte line, %d-cycle@,\
     L2 cache    private, %d KB, %d-way, %d-cycle@,\
     L3 cache    shared, %d KB, %d-way, %d-cycle@,\
     Memory      %d-cycle@,\
     HTM         2-bit (r/w) per L1 line, %s@,\
     Stag.Trans. %d-bit PC tag per L1 cache line@]"
    t.cores (lines_kb t.l1_lines) t.l1_ways (t.words_per_line * 8) t.l1_latency
    (lines_kb t.l2_lines) t.l2_ways t.l2_latency (lines_kb t.l3_lines) t.l3_ways
    t.l3_latency t.mem_latency
    (if t.lazy_htm then "lazy committer-wins" else "eager requester-wins")
    t.pc_tag_bits
