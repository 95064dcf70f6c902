type dev = Pmem | Nvme

let dev_name = function Pmem -> "pmem" | Nvme -> "NVMe"

let costs = Hw.Costs.default
let psz = Hw.Defs.page_size
let device_pages = 131072 (* 512 MiB of device space, scaled from 375 GB *)

let fresh_device dev =
  match dev with
  | Pmem ->
      let p =
        Sdevice.Pmem.create
          ~capacity_bytes:(Int64.of_int (device_pages * psz))
          ()
      in
      `P p
  | Nvme ->
      let n =
        Sdevice.Nvme.create ~capacity_bytes:(Int64.of_int (device_pages * psz)) ()
      in
      `N n

type aquila_stack = {
  a_ctx : Aquila.Context.t;
  a_store : Blobstore.Store.t;
  a_access : Sdevice.Access.t;
  a_machine : Hw.Machine.t;
}

let aquila_access ~domain dev =
  match (dev, domain) with
  | `P p, Hw.Domain_x.Nonroot_ring0 -> Sdevice.Access.dax_pmem costs p
  | `N n, Hw.Domain_x.Nonroot_ring0 -> Sdevice.Access.spdk_nvme costs n
  (* kmmap: the kernel's own mmio path reaches devices from ring 0 *)
  | `P p, Hw.Domain_x.Ring3 ->
      Sdevice.Access.host_pmem costs ~entry:Sdevice.Access.In_kernel p
  | `N n, Hw.Domain_x.Ring3 ->
      Sdevice.Access.host_nvme costs ~entry:Sdevice.Access.In_kernel n

(* Ambient replacement policy: set once by the CLI / bench drivers before
   any experiment (or fan-out worker) builds a stack, then only read.
   [tweak] is applied after, so per-experiment ablations still win. *)
let ambient_policy = ref Mcache.Policy.Clock
let set_policy k = ambient_policy := k
let policy () = !ambient_policy

let aquila_config ~domain ~tweak frames =
  {
    Aquila.Context.cache =
      tweak
        {
          (Mcache.Dram_cache.default_config ~frames) with
          Mcache.Dram_cache.policy = policy ();
        };
    domain;
  }

let make_aquila ?(domain = Hw.Domain_x.Nonroot_ring0) ?(tweak = Fun.id) ~frames
    ~dev () =
  let machine = Hw.Machine.create () in
  let device = fresh_device dev in
  let access = aquila_access ~domain device in
  let store = Blobstore.Store.create ~capacity_pages:device_pages () in
  let ctx =
    Aquila.Context.create ~costs ~machine (aquila_config ~domain ~tweak frames)
  in
  { a_ctx = ctx; a_store = store; a_access = access; a_machine = machine }

let make_aquila_access ?(domain = Hw.Domain_x.Nonroot_ring0) ?(frames = 2048)
    ~access () =
  let machine = Hw.Machine.create () in
  let store = Blobstore.Store.create ~capacity_pages:device_pages () in
  let ctx =
    Aquila.Context.create ~costs ~machine
      (aquila_config ~domain ~tweak:Fun.id frames)
  in
  {
    a_ctx = ctx;
    a_store = store;
    a_access = access costs (Some store);
    a_machine = machine;
  }

type linux_stack = {
  l_msys : Linux_sim.Mmap_sys.t;
  l_store : Blobstore.Store.t;
  l_access : Sdevice.Access.t;
  l_machine : Hw.Machine.t;
}

let host_access ~entry dev =
  match dev with
  | `P p -> Sdevice.Access.host_pmem costs ~entry p
  | `N n -> Sdevice.Access.host_nvme costs ~entry n

let make_linux ?(readahead = 32) ~frames ~dev () =
  let machine = Hw.Machine.create () in
  let device = fresh_device dev in
  let access = host_access ~entry:Sdevice.Access.In_kernel device in
  let store = Blobstore.Store.create ~capacity_pages:device_pages () in
  let cfg =
    {
      Linux_sim.Mmap_sys.cache =
        { (Linux_sim.Page_cache.default_config ~frames) with readahead };
    }
  in
  let msys = Linux_sim.Mmap_sys.create ~costs ~machine cfg in
  { l_msys = msys; l_store = store; l_access = access; l_machine = machine }

type ucache_stack = {
  u_cache : Uspace.User_cache.t;
  u_store : Blobstore.Store.t;
  u_access : Sdevice.Access.t;
}

let make_ucache ~cache_pages ~dev () =
  let device = fresh_device dev in
  let access = host_access ~entry:Sdevice.Access.From_user device in
  let store = Blobstore.Store.create ~capacity_pages:device_pages () in
  let ucache =
    Uspace.User_cache.create
      (Uspace.User_cache.default_config ~capacity_pages:cache_pages)
  in
  { u_cache = ucache; u_store = store; u_access = access }

let kv_of_rocksdb db =
  {
    Ycsb.Runner.kv_read = (fun k -> Kvstore.Rocksdb_sim.get db k);
    kv_update = (fun k v -> Kvstore.Rocksdb_sim.put db k v);
    kv_insert = (fun k v -> Kvstore.Rocksdb_sim.put db k v);
    kv_scan = (fun ~start ~n -> Kvstore.Rocksdb_sim.scan db ~start ~n);
    kv_rmw =
      (fun k f ->
        let v = match Kvstore.Rocksdb_sim.get db k with Some v -> v | None -> "" in
        Kvstore.Rocksdb_sim.put db k (f v));
  }

let kv_of_kreon db =
  {
    Ycsb.Runner.kv_read = (fun k -> Kvstore.Kreon_sim.get db k);
    kv_update = (fun k v -> Kvstore.Kreon_sim.put db k v);
    kv_insert = (fun k v -> Kvstore.Kreon_sim.put db k v);
    kv_scan = (fun ~start ~n -> Kvstore.Kreon_sim.scan db ~start ~n);
    kv_rmw =
      (fun k f ->
        let v = match Kvstore.Kreon_sim.get db k with Some v -> v | None -> "" in
        Kvstore.Kreon_sim.put db k (f v));
  }

let scale_note =
  "sizes scaled ~2^10 vs the paper (GB->MB); ratios, batch amortization and \
   cost constants preserved (DESIGN.md #2)"

let cycles_per_op ctxs labels ops =
  let total =
    List.fold_left
      (fun acc ctx ->
        List.fold_left
          (fun acc l -> Int64.add acc (Sim.Engine.label_get ctx l))
          acc labels)
      0L ctxs
  in
  Int64.to_float total /. float_of_int ops

(* Run [f] under the requested observers and export their sinks.  With
   none requested, [f] runs untouched (the fast path).  Counters are
   always on, so a fresh metrics epoch just zeroes the registry — the
   snapshot then covers exactly this run, whatever ran earlier in the
   process.  The tracer and the profiler are domain-local: callers force
   a sequential run while either is on.  The sinks go out in a fixed
   order: trace files and summary, the report, then the metrics files. *)
let observe ?trace ?csv ?summary ?buffer ?report ?metrics_out ?profile
    ?(sample_period = 10_000) ?timeseries ?(ts_period = 1_000_000) f =
  let tracing = trace <> None || csv <> None || summary <> None in
  let profiling = profile <> None || timeseries <> None in
  if not (tracing || profiling || report <> None || metrics_out <> None) then
    f ()
  else begin
    Metrics.Registry.reset ();
    let p =
      Metrics.Profile.create ~period:sample_period
        ~ts_period:(if timeseries = None then 0 else ts_period)
        ()
    in
    if profiling then Trace.start_profile p;
    if tracing then ignore (Trace.start ?capacity_per_core:buffer ());
    let stop_tracer () = if tracing then Trace.stop () else None in
    let v =
      try f ()
      with e ->
        ignore (stop_tracer ());
        if profiling then Trace.stop_profile ();
        raise e
    in
    Option.iter
      (fun tr ->
        Option.iter
          (fun path ->
            Trace.write_chrome_json tr path;
            Sim.Sink.printf "trace: %d events (%d dropped) -> %s\n%!"
              (Trace.events_count tr) (Trace.dropped tr) path)
          trace;
        Option.iter (Trace.write_csv tr) csv;
        Option.iter (fun top -> Trace.print_summary ~top tr) summary)
      (stop_tracer ());
    Option.iter
      (fun r ->
        let samples = Metrics.Registry.snapshot () in
        if r = `Families then Stats.Metrics_report.print_families samples;
        Stats.Metrics_report.print samples)
      report;
    if profiling then Trace.stop_profile ();
    let export what write =
      Option.iter (fun path ->
          write path;
          Sim.Sink.printf "metrics: %s -> %s\n%!" what path)
    in
    export "snapshot"
      (fun path -> Metrics.Export.write ~path (Metrics.Registry.snapshot ()))
      metrics_out;
    export "folded profile"
      (fun path -> Metrics.Export.to_file path (Metrics.Profile.folded p))
      profile;
    export "timeseries"
      (fun path -> Metrics.Export.to_file path (Metrics.Profile.timeseries_csv p))
      timeseries;
    v
  end
