(* Open-loop latency-vs-offered-load experiments (registry id [openloop],
   aquila_cli loadtest).  See DESIGN.md §12: the Loadgen harness injects
   seeded arrivals regardless of service progress, so these curves show
   the queueing delay every closed-loop experiment in the repo hides. *)

type kind = Linux | Aquila | Cluster

let kind_name = function
  | Linux -> "linux"
  | Aquila -> "aquila"
  | Cluster -> "cluster"

let kind_of_string = function
  | "linux" -> Ok Linux
  | "aquila" -> Ok Aquila
  | "cluster" -> Ok Cluster
  | s -> Error (Printf.sprintf "unknown backend %S (linux|aquila|cluster)" s)

type params = {
  shape : Loadgen.Arrival.shape;
  horizon : int;
  workers : int;
  queue_cap : int;
  slo_cycles : int;
  seed : int;
}

let default_params =
  {
    shape = Loadgen.Arrival.Poisson_shape;
    horizon = 24_000_000 (* 10 ms at 2.4 GHz *);
    workers = 4;
    queue_cap = 512;
    slo_cycles = 1_000_000 (* ~0.42 ms: linux meets it until its knee *);
    seed = 42;
  }

(* mmio sizing: a 4x-out-of-memory file on DAX pmem, so misses are full
   software faults and the backends differ by fault-path overhead
   (fig5b's regime) rather than device time. *)
let frames = 256
let file_pages = 1024
let write_fraction = 0.2

(* cluster sizing: small enough that one sweep point stays well under
   the per-node WAL capacity (every update consumes a WAL page). *)
let cl_nodes = 3
let cl_replicas = 2
let cl_records = 256
let cl_value_bytes = 64

let cl_cfg =
  {
    Aqcluster.Cluster.default_config with
    Aqcluster.Cluster.nodes = cl_nodes;
    replicas = cl_replicas;
    node = { Aqcluster.Node.cache_frames = 64; wal_pages = 4096 };
  }

(* Per-request content (page or key slot, read vs write), precomputed as
   a pure function of (seed, n, space) so every worker-count and
   [--jobs] run serves identical requests. *)
let request_plan ~seed ~n ~space =
  let rng = Sim.Rng.create (seed lxor 0x5bd1e995) in
  let slot = Array.make n 0 and wr = Array.make n false in
  for i = 0 to n - 1 do
    slot.(i) <- Sim.Rng.int rng space;
    wr.(i) <- Sim.Rng.float rng < write_fraction
  done;
  (slot, wr)

let process_of params ~rate =
  Loadgen.Arrival.shaped params.shape ~rate ~horizon:params.horizon

let n_arrivals params ~rate =
  Array.length
    (Loadgen.Arrival.generate ~seed:params.seed ~horizon:params.horizon
       (process_of params ~rate))

let lg_config params ~rate =
  {
    Loadgen.process = process_of params ~rate;
    horizon = params.horizon;
    workers = params.workers;
    queue_cap = params.queue_cap;
    slo_cycles = params.slo_cycles;
    seed = params.seed;
    shed_when_degraded = true;
  }

(* Fiber-only: build one of the two mmio stacks and its serve closure. *)
let mmio_backend kind params ~rate () =
  let sys =
    match kind with
    | Linux -> Microbench.Lx (Scenario.make_linux ~frames ~dev:Scenario.Pmem ())
    | Aquila ->
        Microbench.Aq (Scenario.make_aquila ~frames ~dev:Scenario.Pmem ())
    | Cluster -> invalid_arg "Openloop.mmio_backend: cluster"
  in
  Microbench.enter sys;
  let region =
    Microbench.make_region sys ~name:"openloop.dat" ~pages:file_pages
  in
  let n = n_arrivals params ~rate in
  let slot, wr = request_plan ~seed:params.seed ~n ~space:file_pages in
  (* worker fibers enter the stack's thread context on first service *)
  let entered = Hashtbl.create 8 in
  let serve i =
    let fid = (Sim.Engine.self ()).Sim.Engine.fid in
    if not (Hashtbl.mem entered fid) then begin
      Hashtbl.add entered fid ();
      Microbench.enter sys
    end;
    region.Microbench.touch ~page:slot.(i) ~write:wr.(i)
  in
  let degraded =
    match sys with
    | Microbench.Aq s ->
        fun () ->
          Mcache.Dram_cache.degraded (Aquila.Context.cache s.Scenario.a_ctx)
    | Microbench.Lx _ -> fun () -> false
  in
  { Loadgen.name = kind_name kind; serve; degraded }

type point = {
  p_kind : kind;
  p_rate : float;
  p_res : Loadgen.result;
  p_final : int64;
  p_events : int;
}

let run_point params kind ~rate =
  let eng = Sim.Engine.create () in
  let cfg = lg_config params ~rate in
  let r =
    match kind with
    | Linux | Aquila -> Loadgen.run eng cfg (mmio_backend kind params ~rate)
    | Cluster ->
        (* boot + preload run the engine to a drain before the load
           starts; Loadgen offsets arrivals by the setup time *)
        let cl = Aqcluster.Cluster.create ~cfg:cl_cfg ~eng () in
        Aqcluster.Cluster.boot cl;
        let kv = Aqcluster.Cluster.kv cl in
        Ycsb.Runner.load ~eng ~record_count:cl_records
          ~value_bytes:cl_value_bytes ~insert:kv.Ycsb.Runner.kv_insert ();
        let n = n_arrivals params ~rate in
        let slot, wr = request_plan ~seed:params.seed ~n ~space:cl_records in
        let vrng = Sim.Rng.create (params.seed lxor 0x27d4eb2f) in
        let value = Ycsb.Runner.value_of vrng cl_value_bytes in
        let serve i =
          let key = Ycsb.Runner.key_of slot.(i) in
          try
            if wr.(i) then kv.Ycsb.Runner.kv_update key value
            else ignore (kv.Ycsb.Runner.kv_read key)
          with Aqcluster.Rpc.Unreachable _ -> ()
        in
        Loadgen.run eng cfg (fun () ->
            {
              Loadgen.name = kind_name Cluster;
              serve;
              degraded = (fun () -> Aqcluster.Cluster.degraded cl);
            })
  in
  {
    p_kind = kind;
    p_rate = rate;
    p_res = r;
    p_final = Sim.Engine.now eng;
    p_events = Sim.Engine.events eng;
  }

(* ---- reporting ---- *)

let rate_str r =
  if r >= 1e6 then Printf.sprintf "%.1fM" (r /. 1e6)
  else Printf.sprintf "%.0fk" (r /. 1e3)

let pctl h p = Stats.Histogram.percentile h p
let p99 pt = Int64.to_float (pctl pt.p_res.Loadgen.sojourn 99.)

let knee = function
  | [] -> None
  | base :: _ as points ->
      let b = Float.max 1. (p99 base) in
      List.find_opt (fun p -> p99 p > 8. *. b) points

let print_header () =
  Sim.Sink.printf "  %-8s %9s %9s %7s %7s %5s %10s %10s %10s\n" "rate"
    "arrivals" "done" "shed" "slo" "maxq" "p50" "p99" "p999"

let print_point pt =
  let r = pt.p_res in
  Sim.Sink.printf "  %-8s %9d %9d %7d %7d %5d %10Ld %10Ld %10Ld\n"
    (rate_str pt.p_rate) r.Loadgen.arrivals r.Loadgen.completions
    (Loadgen.shed r) r.Loadgen.slo_violations r.Loadgen.max_depth
    (pctl r.Loadgen.sojourn 50.) (pctl r.Loadgen.sojourn 99.)
    (pctl r.Loadgen.sojourn 99.9)

let default_rates = [ 5e4; 1e5; 2e5; 4e5; 8e5; 1.6e6; 3.2e6 ]

let sweep params kind rates = List.map (fun rate -> run_point params kind ~rate) rates

let run () =
  let params = default_params in
  Sim.Sink.printf
    "open-loop %s arrivals over %d Mcycles, %d workers, queue cap %d, SLO %d \
     cycles\n"
    (Loadgen.Arrival.shape_name params.shape)
    (params.horizon / 1_000_000)
    params.workers params.queue_cap params.slo_cycles;
  Sim.Sink.printf
    "mmio backends: DAX pmem, %d-frame cache, %d-page file (4x out of \
     memory), %.0f%% writes\n"
    frames file_pages
    (100. *. write_fraction);
  let report kind =
    let pts = sweep params kind default_rates in
    Sim.Sink.printf "%s:\n" (kind_name kind);
    print_header ();
    List.iter print_point pts;
    pts
  in
  let lx = report Linux in
  let aq = report Aquila in
  let cl = run_point params Cluster ~rate:2e5 in
  Sim.Sink.printf "cluster (%d nodes x %d replicas, YCSB keys, one point):\n"
    cl_nodes cl_replicas;
  print_header ();
  print_point cl;
  let growth pts =
    match pts with
    | [] -> 0.
    | base :: _ ->
        let top = List.nth pts (List.length pts - 1) in
        p99 top /. Float.max 1. (p99 base)
  in
  let knee_str pts =
    match knee pts with Some p -> rate_str p.p_rate | None -> "beyond grid"
  in
  Sim.Sink.printf
    "hockey stick: linux p99 grows %.0fx across the sweep (knee at %s); \
     aquila %.0fx (knee at %s)\n"
    (growth lx) (knee_str lx) (growth aq) (knee_str aq);
  let aquila_sustains_more =
    match (knee lx, knee aq) with
    | Some l, Some a -> a.p_rate > l.p_rate
    | Some _, None -> true (* aquila never kneed inside the grid *)
    | None, _ -> false
  in
  Sim.Sink.printf
    "  aquila sustains higher offered load before its p99 knee: %b\n"
    aquila_sustains_more

let loadtest ?(jobs = 1) ?fault ~backends ~rates params =
  let points =
    List.concat_map (fun k -> List.map (fun r -> (k, r)) rates) backends
  in
  Fanout.run ~jobs ?fault
    (List.map
       (fun (k, rate) ->
         Fanout.job
           ~name:(Printf.sprintf "loadtest %s %s" (kind_name k) (rate_str rate))
           (fun () ->
             let pt = run_point params k ~rate in
             Sim.Sink.printf "### loadtest %s %s rate %s\n" (kind_name k)
               (Loadgen.Arrival.shape_name params.shape)
               (rate_str rate);
             print_header ();
             print_point pt;
             Sim.Sink.printf
               "  admitted %d shed_full %d shed_degraded %d events %d final \
                cycles %Ld\n"
               pt.p_res.Loadgen.admitted pt.p_res.Loadgen.shed_full
               pt.p_res.Loadgen.shed_degraded pt.p_events pt.p_final))
       points)
