(** Ablations of the design choices DESIGN.md §5 calls out, and
    sensitivity sweeps beyond the paper's fixed configurations (registry
    ids [ablation-*] and [sweep-*]).  Each prints one table via
    {!Sim.Sink}. *)

val tlb_and_batching : unit -> unit
(** Batched vs per-page eviction + shootdown, posted IPIs, and the
    freelist's batching (microbenchmark, 16 threads, out of memory). *)

val memcpy : unit -> unit
(** AVX2 streaming memcpy vs scalar copy on the DAX-pmem fault path. *)

val readahead : unit -> unit
(** MADV_RANDOM vs MADV_SEQUENTIAL on a sequential NVMe scan. *)

val uring : unit -> unit
(** io_uring vs SPDK vs synchronous host I/O as the miss-path access
    method (the paper's Section 3.3 future work). *)

val cache_size_sweep : unit -> unit
(** Aquila vs Linux mmap throughput across cache:dataset ratios. *)

val evict_batch_sweep : unit -> unit
(** Aquila throughput across eviction/shootdown batch sizes. *)
