(* Figure 7: RocksDB read-path cycle breakdown — user-space cache +
   explicit I/O vs Aquila (out-of-memory dataset, pmem). *)

let get_labels =
  [
    "kv_get"; "kv_get_bloom"; "kv_get_index"; "kv_get_block"; "kv_get_log";
    "kv_scan"; "kv_scan_index"; "kv_scan_block";
  ]

let device_labels = [ "io_device"; "io_memcpy"; "io_driver" ]
let syscall_labels = [ "io_syscall"; "io_kernel" ]

let cache_mgmt_labels_ucache = [ "ucache" ]

let cache_mgmt_labels_aquila =
  [
    "trap"; "fault_entry"; "vma"; "index"; "alloc"; "evict"; "tlb"; "tlb_walk";
    "map"; "lru"; "writeback"; "ept"; "irq"; "dirty"; "enter";
    "syscall_dispatch";
  ]

let run () =
  let threads = 8 in
  let ctxs sys = (Fig5.run_for_breakdown ~sys ~threads).Fig5.ctxs in
  let ctxs_u = ctxs Fig5.Rw in
  let ctxs_a = ctxs Fig5.Aquila_s in
  let ops = threads * 1000 in
  (* syscalls count as cache management in both configurations *)
  let row name ctxs ~cache_labels =
    let bucket labels = Scenario.cycles_per_op ctxs labels ops in
    let dev = bucket device_labels in
    let cache = bucket cache_labels +. bucket syscall_labels in
    let get = bucket get_labels in
    let total = dev +. cache +. get in
    ( [
        name;
        Stats.Table_fmt.kcycles dev;
        Stats.Table_fmt.kcycles cache;
        Stats.Table_fmt.kcycles get;
        Stats.Table_fmt.kcycles total;
      ],
      (cache, total) )
  in
  let urow, (ucache, utotal) =
    row "read/write + user cache" ctxs_u ~cache_labels:cache_mgmt_labels_ucache
  in
  let arow, (acache, atotal) =
    row "Aquila mmio" ctxs_a ~cache_labels:cache_mgmt_labels_aquila
  in
  Stats.Table_fmt.print_table
    ~title:
      "Figure 7: RocksDB cycles/op breakdown for reads (out-of-memory, pmem, 8 \
       threads)"
    ~header:[ "configuration"; "device I/O"; "cache mgmt"; "get"; "total" ]
    [ urow; arow ];
  Sim.Sink.printf
    "paper: user cache 65.4K cycles/op (I/O 4.8K, cache mgmt 45.2K, get 15.3K); \
     Aquila (I/O 3.9K, cache mgmt 17.5K, get 18.5K); 2.58x fewer cache-mgmt \
     cycles, 69%% -> 43.7%% of CPU on I/O\n";
  Sim.Sink.printf
    "measured: cache-mgmt ratio %.2fx; cache-mgmt share %.1f%% -> %.1f%%\n"
    (ucache /. acache)
    (100. *. ucache /. utotal)
    (100. *. acache /. atotal)
