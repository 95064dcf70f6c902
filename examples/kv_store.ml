(* Key-value store scenario: the paper's first motivating workload.

   Runs the same RocksDB-style LSM store twice — once over explicit
   direct I/O with a user-space block cache (the recommended RocksDB
   configuration) and once over Aquila mmio — and compares YCSB-B
   throughput and latency, miniature Figure 5.

   Run with: dune exec examples/kv_store.exe *)

let records = 8192
let value_bytes = 1024
let cache_pages = 1536

let load_and_run ~name env =
  let eng = Sim.Engine.create () in
  let db = ref None in
  ignore
    (Sim.Engine.spawn eng ~name:"load" ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env () in
         let rng = Sim.Rng.create 7 in
         Kvstore.Rocksdb_sim.bulk_load d
           (List.init records (fun i ->
                (Ycsb.Runner.key_of i, Ycsb.Runner.value_of rng value_bytes)));
         db := Some d));
  Sim.Engine.run eng;
  let db = Option.get !db in
  let r =
    Ycsb.Runner.run ~eng ~threads:8 ~ops_per_thread:800
      ~workload:Ycsb.Workload.b ~record_count:records ~value_bytes
      ~kv:(Experiments.Scenario.kv_of_rocksdb db) ()
  in
  Printf.printf "%-22s %12s   avg %8.0f cycles   p99.9 %8Ld cycles\n" name
    (Stats.Table_fmt.ops_per_sec r.Ycsb.Runner.throughput_ops_s)
    (Stats.Histogram.mean r.Ycsb.Runner.latency)
    (Stats.Histogram.percentile r.Ycsb.Runner.latency 99.9);
  r.Ycsb.Runner.throughput_ops_s

let () =
  Printf.printf "RocksDB-style store, YCSB-B (95%% reads), 8 threads, pmem:\n";
  let rw =
    let s = Experiments.Scenario.make_ucache ~cache_pages ~dev:Experiments.Scenario.Pmem () in
    load_and_run ~name:"read/write + ucache"
      (Kvstore.Env.direct_ucache ~store:s.Experiments.Scenario.u_store
         ~device_access:s.Experiments.Scenario.u_access
         ~ucache:s.Experiments.Scenario.u_cache)
  in
  let aq =
    let s = Experiments.Scenario.make_aquila ~frames:cache_pages ~dev:Experiments.Scenario.Pmem () in
    load_and_run ~name:"Aquila mmio"
      (Kvstore.Env.aquila ~store:s.Experiments.Scenario.a_store
         ~ctx:s.Experiments.Scenario.a_ctx
         ~device_access:s.Experiments.Scenario.a_access)
  in
  Printf.printf "Aquila speedup: %.2fx\n" (aq /. rw)
