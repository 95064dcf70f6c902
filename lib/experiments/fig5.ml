(* Figure 5: RocksDB YCSB-C (uniform, 1 KiB values) under explicit
   read/write + user cache, Linux mmap, and Aquila — dataset fitting in the
   cache (a) and 4x larger (b). *)

let value_bytes = 1024
let thread_counts = [ 1; 8; 32 ]

(* SST data blocks hold 3 x ~1054 B records per 4 KiB page, so the
   on-device footprint is ~4/3 of the logical data; size the cache so the
   paper's "fits" / "4x larger" relations hold on device pages. *)
let cache_frames_for ~records ~fits =
  let device_pages = records * 110 / 300 in
  if fits then device_pages + 512 else (device_pages / 4) + 256

type syskind = Rw | Mmap | Aquila_s

(* Build a loaded RocksDB on a fresh stack; returns ops closures and the
   per-thread contexts used for Figure 7's breakdown. *)
let build ~eng ~sys ~dev ~records ~cache_frames =
  let env =
    match sys with
    | Rw ->
        let s = Scenario.make_ucache ~cache_pages:cache_frames ~dev () in
        Kvstore.Env.direct_ucache ~store:s.Scenario.u_store
          ~device_access:s.Scenario.u_access ~ucache:s.Scenario.u_cache
    | Mmap ->
        let s = Scenario.make_linux ~frames:cache_frames ~dev () in
        Kvstore.Env.linux_mmap ~store:s.Scenario.l_store ~msys:s.Scenario.l_msys
          ~device_access:s.Scenario.l_access
    | Aquila_s ->
        let s = Scenario.make_aquila ~frames:cache_frames ~dev () in
        Kvstore.Env.aquila ~store:s.Scenario.a_store ~ctx:s.Scenario.a_ctx
          ~device_access:s.Scenario.a_access
  in
  let db = ref None in
  ignore
    (Sim.Engine.spawn eng ~name:"load" ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env () in
         let rng = Sim.Rng.create 99 in
         let records_l =
           List.init records (fun i ->
               (Ycsb.Runner.key_of i, Ycsb.Runner.value_of rng value_bytes))
         in
         Kvstore.Rocksdb_sim.bulk_load d records_l;
         db := Some d));
  Sim.Engine.run eng;
  match !db with Some d -> d | None -> assert false

type meas = {
  thr : float;
  avg_lat : float;
  p999 : float;
  ctxs : Sim.Engine.ctx list;
  ops : int;
}

let run_sys ~sys ~dev ~records ~fits ~threads_list =
  let eng = Sim.Engine.create () in
  let cache_frames = cache_frames_for ~records ~fits in
  let db = build ~eng ~sys ~dev ~records ~cache_frames in
  List.map
    (fun threads ->
      let r =
        Ycsb.Runner.run ~eng ~threads ~ops_per_thread:1000
          ~workload:Ycsb.Workload.c_uniform ~record_count:records ~value_bytes
          ~kv:(Scenario.kv_of_rocksdb db) ()
      in
      ( threads,
        {
          thr = r.Ycsb.Runner.throughput_ops_s;
          avg_lat = Stats.Histogram.mean r.Ycsb.Runner.latency;
          p999 =
            Int64.to_float (Stats.Histogram.percentile r.Ycsb.Runner.latency 99.9);
          ctxs = r.Ycsb.Runner.thread_ctxs;
          ops = r.Ycsb.Runner.ops;
        } ))
    threads_list

let run_panel ~records ~fits ~title ~paper_note =
  let systems = [ Rw; Mmap; Aquila_s ] in
  let devices = [ Scenario.Nvme; Scenario.Pmem ] in
  let all =
    List.concat_map
      (fun dev ->
        List.map
          (fun sys ->
            ((dev, sys), run_sys ~sys ~dev ~records ~fits ~threads_list:thread_counts))
          systems)
      devices
  in
  let cell dev sys threads =
    match List.assoc_opt (dev, sys) all with
    | Some rows -> List.assoc_opt threads rows
    | None -> None
  in
  let fmt_thr = function Some m -> Stats.Table_fmt.ops_per_sec m.thr | None -> "-" in
  let ratio a b = match (a, b) with Some x, Some y -> Stats.Table_fmt.speedup (x.thr /. y.thr) | _ -> "-" in
  let rows =
    List.concat_map
      (fun dev ->
        List.map
          (fun threads ->
            let rw = cell dev Rw threads
            and mm = cell dev Mmap threads
            and aq = cell dev Aquila_s threads in
            [
              Scenario.dev_name dev;
              string_of_int threads;
              fmt_thr rw;
              fmt_thr mm;
              fmt_thr aq;
              ratio aq rw;
              ratio aq mm;
            ])
          thread_counts)
      devices
  in
  Stats.Table_fmt.print_table ~title
    ~header:
      [ "device"; "threads"; "read/write"; "mmap"; "Aquila"; "Aq/rw"; "Aq/mmap" ]
    rows;
  Sim.Sink.printf "%s\n" paper_note;
  all

let run_a () =
  ignore
    (run_panel ~records:8192 ~fits:true
       ~title:"Figure 5(a): RocksDB YCSB-C, dataset fits in the cache"
       ~paper_note:
         "paper: mmap beats read/write in-memory; Aquila up to 1.15x over mmap")

let run_b () =
  ignore
    (run_panel ~records:32768 ~fits:false
       ~title:"Figure 5(b): RocksDB YCSB-C, dataset 4x the cache"
       ~paper_note:
         "paper: mmap collapses out-of-memory; Aquila 1.18x-1.65x over read/write \
          on pmem, ~1x on NVMe (device-bound)")

(* Shared with Figure 7: a single out-of-memory pmem run returning
   breakdown-ready measurements. *)
let run_for_breakdown ~sys ~threads =
  let rows =
    run_sys ~sys ~dev:Scenario.Pmem ~records:32768 ~fits:false
      ~threads_list:[ threads ]
  in
  List.assoc threads rows
