type entry = { id : string; title : string; run : unit -> unit }

let all =
  [
    { id = "table1"; title = "Standard YCSB workloads"; run = Table1.run };
    {
      id = "fig5a";
      title = "RocksDB YCSB-C, dataset fits in the cache";
      run = Fig5.run_a;
    };
    { id = "fig5b"; title = "RocksDB YCSB-C, dataset 4x the cache"; run = Fig5.run_b };
    { id = "fig6a"; title = "Ligra BFS, small DRAM cache"; run = Fig6.run_a };
    { id = "fig6b"; title = "Ligra BFS, large DRAM cache"; run = Fig6.run_b };
    { id = "fig6c"; title = "Ligra BFS time breakdown"; run = Fig6.run_c };
    { id = "fig7"; title = "RocksDB read-path cycle breakdown"; run = Fig7.run };
    { id = "fig8a"; title = "Page-fault breakdown, in-memory"; run = Fig8.run_a };
    { id = "fig8b"; title = "Page-fault breakdown with evictions"; run = Fig8.run_b };
    { id = "fig8c"; title = "Device access methods"; run = Fig8.run_c };
    { id = "fig9"; title = "Kreon kmmap vs Aquila, YCSB A-F"; run = Fig9.run };
    { id = "fig10a"; title = "Scalability, dataset fits in memory"; run = Fig10.run_a };
    { id = "fig10b"; title = "Scalability, dataset 12.5x memory"; run = Fig10.run_b };
    (* Free-running shard-partitioned variants: honour the CLI's
       --shards/--deterministic through Sharded.set_mode; terminal stats
       are invariant across both. *)
    {
      id = "fig5s";
      title = "Shard-partitioned uniform reads, out of memory (free-running)";
      run = Sharded.run_fig5s;
    };
    {
      id = "fig10s";
      title = "Shard-partitioned zipf reads, dataset fits (free-running)";
      run = Sharded.run_fig10s;
    };
    {
      id = "crashs";
      title = "Shard-partitioned writes + msync with a mid-run power loss";
      run = Sharded.run_crashcheck;
    };
    {
      id = "cluster";
      title = "Replicated aqcluster, YCSB A over 5 nodes x 3 replicas";
      run = Cluster_run.run_cluster;
    };
    {
      id = "clusterf";
      title = "Replicated aqcluster with a mid-run node crash + failover";
      run = Cluster_run.run_clusterf;
    };
    {
      id = "openloop";
      title = "Open-loop latency vs offered load (hockey stick), per backend";
      run = Openloop.run;
    };
    (* Ablations (DESIGN.md section 5) and sensitivity sweeps beyond the
       paper's fixed points. *)
    {
      id = "ablation-policy";
      title = "Replacement policies";
      run = Policy_ablation.run;
    };
    {
      id = "ablation-tlb-batching";
      title = "TLB shootdown and batching";
      run = Ablations.tlb_and_batching;
    };
    {
      id = "ablation-memcpy";
      title = "AVX2 streaming memcpy vs scalar";
      run = Ablations.memcpy;
    };
    {
      id = "ablation-readahead";
      title = "madvise-driven readahead, sequential scan of 3000 pages";
      run = Ablations.readahead;
    };
    {
      id = "ablation-uring";
      title = "io_uring as the miss-path access method";
      run = Ablations.uring;
    };
    {
      id = "sweep-cache-size";
      title = "Cache size vs dataset";
      run = Ablations.cache_size_sweep;
    };
    {
      id = "sweep-evict-batch";
      title = "Eviction/shootdown batch size";
      run = Ablations.evict_batch_sweep;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* "fig5" selects fig5a+fig5b; an exact id still selects just itself. *)
let find_prefix id =
  match find id with
  | Some e -> [ e ]
  | None -> List.filter (fun e -> String.starts_with ~prefix:id e.id) all

(* Each entry becomes one fan-out job that prints its own header, so the
   aggregate output is byte-identical at any parallelism degree. *)
let run_selected ?(jobs = 1) ?fault entries =
  Fanout.run ~jobs ?fault
    (List.map
       (fun e ->
         Fanout.job ~name:e.id (fun () ->
             Sim.Sink.printf "\n### %s: %s\n" e.id e.title;
             e.run ()))
       entries)
