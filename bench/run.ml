(* The bench: every counter the perf gate holds, every determinism check
   and every overhead bound, in one run; and the gate itself.

   Usage:
     run.exe                        run every section, write BENCH.json
     run.exe gate BASE CUR          exit 1 if a counter BASE gates moved
                                    more than 25 % in its bad direction
                                    in CUR, or is missing from CUR
     run.exe gate --selftest FILE   prove the gate trips on every gated
                                    counter of FILE, perturbed or deleted

   Sections, in run order; each section's BENCH.json keys start with its
   name.  A failed check exits 1 after BENCH.json is written.
   - metrics: the aqmetrics snapshot of the 8-thread fig5-style
     microbenchmark, twice from a reset registry; both must serialize
     identically.  It runs first, so the snapshot holds only the series
     this workload registers.
   - engine: events/s on the DES hot path with the delay fast path on
     and off ([Engine.create ~fastpath:false]), over the engine-facing
     slice of the fault path and the Aquila stack at 1 and 16 threads.
     Events and final cycles must agree on, off and across repeats.
   - pdes: Pdes_bench (per-core stacks + ring IPIs) and Sharded (the
     partitioned fig5 shape) at 1/2/4/8 shards, each count free-running
     twice and deterministic once; the three must agree, and events,
     final cycles and windows must not depend on the shard count.
   - mcache: every replacement policy over the zipf and scan mixes,
     twice; the virtual counters must agree.
   - cluster: a crash + failover on a 3-node / 2-replica aqcluster,
     twice.  Events, cycles and device bytes must agree, the no-lost-acks
     and convergence oracles must hold, and one failover must happen.
   - openloop: one overload point per backend (Linux mmap, Aquila, the
     cluster), twice.  Every counter must agree, and every point must
     shed and violate its SLO, or the lower-is-better gates lose teeth.
   - overhead: instrumentation left on hot paths, as c x E / T — the
     per-call cost c, the E sites the workload hits and the workload's
     best CPU time T (Sys.time):
     - trace: disabled probes over the microbenchmark.  E from one traced
       run; c from a bare probe loop, loop overhead included.
     - fault: the engine's crash-hook check over the fault loop at 1M
       iterations, E its event count; c the median of hook-minus-base
       loop rounds.  Fault.active, which guards device-I/O sites, has
       the absolute budget only.  Plan.default (all zero) must reproduce
       the no-plan run.
     - metrics: counter stores over the microbenchmark, E estimated from
       the metrics snapshot; c a store loop minus an empty loop.

   Stdout is deterministic except '#' lines, which carry every wall-clock
   figure: CI runs the bench twice and compares the rest.  BENCH.json is
   one flat object, one leaf per line: provenance (nproc, ocaml, commit),
   then dotted keys.  Keys ending in ".wall" are wall-clock, which no gate
   rule names.  Throughput uses Unix.gettimeofday, because CPU time would
   hide parallel speedup.

   Knobs, from the environment; a malformed or non-positive value exits 2
   before any section runs:
     TRACE_SMOKE_MAX 0.02, TRACE_SMOKE_MAX_NS 10      trace share / ns
     FAULT_SMOKE_MAX 0.01, FAULT_SMOKE_MAX_NS 10      fault share / ns
     METRICS_SMOKE_MAX 0.01, METRICS_SMOKE_MAX_NS 8   metrics share / ns
     ENGINE_PERF_MIN_SPEEDUP4 (unset)  floor on both clusters' 4-shard
                                       speedup, enforced on >= 4 cores *)

let knob name =
  Option.map
    (fun s ->
      match float_of_string_opt (String.trim s) with
      | Some f when Float.is_finite f && f > 0. -> f
      | _ ->
          Printf.eprintf "bench: %s=%S is not a positive number\n%!" name s;
          exit 2)
    (Sys.getenv_opt name)

(* the workload sizes the baseline was taken at *)
let engine_iters = 200_000
let fault_iters = 1_000_000
let pdes_ops = 1500
let sharded_ops = 400
let mcache_ops = 2000

(* ---- results: BENCH.json leaves and failed checks ---- *)

let leaves = ref [] (* (key, rendered JSON number), newest first *)
let leaf key v = leaves := (key, v) :: !leaves
let int_leaf key n = leaf key (string_of_int n)
let cycles_leaf key c = leaf key (Int64.to_string c)
let wall_leaf key x = leaf (key ^ ".wall") (Printf.sprintf "%.6g" x)

let failures = ref []

let fail section fmt =
  Printf.ksprintf
    (fun msg -> failures := Printf.sprintf "%s: %s" section msg :: !failures)
    fmt

(* two runs that must agree on [show] *)
let same section what show a b =
  let sa = show a and sb = show b in
  if sa <> sb then fail section "%s: %s vs %s" what sa sb

let twice section show f =
  let a = f () in
  same section "repeat" show a (f ());
  a

let write_json path pairs =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) pairs));
  output_string oc "\n}\n";
  close_out oc

(* ---- timing ---- *)

let cpu = Sys.time
let wall = Unix.gettimeofday

let timed clock f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* The last result and the fastest time, on [clock], of [n] runs of the
   thunk [build ()] returns; [build] itself is not timed. *)
let best_of n clock build =
  let last = ref None and best = ref infinity in
  for _ = 1 to n do
    let r, dt = timed clock (build ()) in
    last := Some r;
    best := Float.min !best dt
  done;
  (Option.get !last, !best)

(* ---- workloads ---- *)

(* The engine-facing slice of one Aquila page fault, [iters] times on one
   fiber: a multi-label cost-buffer charge, a labelled delay and, one
   time in eight, a device idle wait.  Nearly every event can take the
   delay fast path.  Returns the run, so callers can time it alone. *)
let fault_loop ?fastpath ~iters () =
  let eng = Sim.Engine.create ~seed:7 ?fastpath () in
  ignore
    (Sim.Engine.spawn eng ~name:"faulter" (fun () ->
         let rng = Sim.Engine.rng eng in
         let buf = Sim.Costbuf.create () in
         for _ = 1 to iters do
           Sim.Costbuf.add buf "index" 160L;
           Sim.Costbuf.add buf "alloc" 90L;
           Sim.Costbuf.add buf "map" 210L;
           Sim.Costbuf.add buf "tlb" 120L;
           Sim.Costbuf.add buf "index" 60L;
           Sim.Costbuf.charge buf;
           Sim.Engine.delay ~label:"app" 300L;
           if Sim.Rng.int rng 8 = 0 then Sim.Engine.idle_wait 1200L
         done));
  fun () ->
    Sim.Engine.run eng;
    (Sim.Engine.events eng, Sim.Engine.now eng)

(* The Aquila microbenchmark: [threads] fibers touch random pages of one
   shared 4096-page pmem file through a 1024-frame cache.  Returns the
   run, so callers can time it without building the stack. *)
let aquila_micro ?fastpath ?write_fraction ~threads ~ops_per_thread () =
  let eng = Sim.Engine.create ?fastpath () in
  let stack =
    Experiments.Scenario.make_aquila ~frames:1024 ~dev:Experiments.Scenario.Pmem
      ()
  in
  fun () ->
    ignore
      (Experiments.Microbench.run ~eng
         ~sys:(Experiments.Microbench.Aq stack)
         ~file_pages:4096 ~shared:true ~threads ~ops_per_thread ?write_fraction
         ());
    (Sim.Engine.events eng, Sim.Engine.now eng)

(* the workload of the metrics section and of the trace and metrics
   overheads, built and run *)
let micro8 () = aquila_micro ~threads:8 ~ops_per_thread:4000 () ()

let header fmt = Printf.printf ("=== " ^^ fmt ^^ " ===\n%!")

(* ---- metrics ---- *)

(* Upper bound on the int stores behind a snapshot: a counter's value
   (an overestimate for multi-unit adds), 3 stores per histogram
   observation. *)
let stores_estimate samples =
  List.fold_left
    (fun acc (s : Metrics.Registry.sample) ->
      match s.s_kind with
      | Metrics.Registry.Counter -> acc + s.s_value
      | Metrics.Registry.Gauge -> acc + 1
      | Metrics.Registry.Histogram -> acc + (3 * s.s_count))
    0 samples

let metrics () =
  header "metrics: always-on counters of the 8-thread microbenchmark";
  let samples =
    twice "metrics"
      (fun samples ->
        String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             (Metrics.Export.flat_pairs samples)))
      (fun () ->
        Metrics.Registry.reset ();
        ignore (micro8 ());
        Metrics.Registry.snapshot ())
  in
  let pairs = Metrics.Export.flat_pairs samples in
  List.iter (fun (k, v) -> int_leaf ("metrics." ^ k) v) pairs;
  let stores = stores_estimate samples in
  Printf.printf "metrics: %d series, ~%d stores\n" (List.length pairs) stores;
  stores

(* ---- engine ---- *)

let engine () =
  header "engine: DES hot-path throughput (iters=%d)" engine_iters;
  int_leaf "engine.iters" engine_iters;
  let measure name run =
    let r, fast = best_of 3 wall (fun () -> run ~fastpath:true) in
    let r_queued, queued = best_of 3 wall (fun () -> run ~fastpath:false) in
    let r_again, _ = best_of 1 wall (fun () -> run ~fastpath:true) in
    let show (e, c) = Printf.sprintf "(%d events, %Ld cycles)" e c in
    same "engine" (name ^ " fastpath-vs-queue") show r r_queued;
    same "engine" (name ^ " repeat") show r r_again;
    let events, final = r in
    let eps dt = float_of_int events /. dt in
    Printf.printf "%-12s %9d events  end %12Ld cy\n" name events final;
    Printf.printf "#   %7.2f Mev/s fast  %7.2f Mev/s queued  %5.2fx\n"
      (eps fast /. 1e6) (eps queued /. 1e6) (queued /. fast);
    let k = "engine." ^ name ^ "." in
    int_leaf (k ^ "events") events;
    cycles_leaf (k ^ "final_cycles") final;
    wall_leaf (k ^ "events_per_sec") (eps fast);
    wall_leaf (k ^ "events_per_sec_queued") (eps queued);
    wall_leaf (k ^ "speedup") (queued /. fast)
  in
  measure "fault_loop" (fun ~fastpath ->
      fault_loop ~fastpath ~iters:engine_iters ());
  List.iter
    (fun threads ->
      measure
        (Printf.sprintf "aquila_t%d" threads)
        (fun ~fastpath ->
          aquila_micro ~fastpath ~write_fraction:0.3 ~threads
            ~ops_per_thread:(40_000 / threads) ()))
    [ 1; 16 ]

(* ---- pdes: shard-scaling curves ---- *)

let int_list a = String.concat ", " (List.map string_of_int (Array.to_list a))

let secs_list a =
  String.concat ", " (List.map (Printf.sprintf "%.4f") (Array.to_list a))

(* One curve.  [run ~deterministic n] is one run at [n] shards, returning
   the cluster's stats and the workload's own.  At each count, two
   free-running runs and one deterministic run must agree on [sig_n];
   [sig_all] must agree across counts.  Prints the curve, records it
   under pdes.[prefix]N, and returns its 4-shard speedup. *)
let curve name ~prefix ~run ~sig_n ~sig_all ~extra =
  let points =
    List.map
      (fun n ->
        let free1 = run ~deterministic:false n in
        let free2 = run ~deterministic:false n in
        let det = run ~deterministic:true n in
        same "pdes"
          (Printf.sprintf "%s shards=%d repeat" name n)
          sig_n free1 free2;
        same "pdes"
          (Printf.sprintf "%s shards=%d det-vs-free" name n)
          sig_n free1 det;
        let run_wall ((st : Sim.Shard.stats), _) = st.run_wall_s in
        (n, if run_wall free2 < run_wall free1 then free2 else free1))
      [ 1; 2; 4; 8 ]
  in
  let base = List.assoc 1 points in
  let eps ((st : Sim.Shard.stats), _) =
    float_of_int st.events /. st.run_wall_s
  in
  List.iter
    (fun (n, ((st : Sim.Shard.stats), x)) ->
      if n > 1 then
        same "pdes"
          (Printf.sprintf "%s shards=%d vs shards=1" name n)
          sig_all base (st, x);
      Printf.printf
        "%-7s %d shard(s)  %9d events  end %12Ld cy  %5d windows  %6d cross\n"
        name n st.events st.final_cycles st.windows st.cross_posts;
      Printf.printf
        "#   %7.2f Mev/s; per shard: barrier wait [%s] s, busy [%s] s\n"
        (eps (st, x) /. 1e6) (secs_list st.wait_s) (secs_list st.busy_s);
      let k = Printf.sprintf "pdes.%s%d." prefix n in
      int_leaf (k ^ "events") st.events;
      cycles_leaf (k ^ "final_cycles") st.final_cycles;
      int_leaf (k ^ "cross_posts") st.cross_posts;
      int_leaf (k ^ "windows") st.windows;
      extra k x;
      let each what f =
        Array.iteri (fun i v -> f (Printf.sprintf "%s%s.%d" k what i) v)
      in
      each "shard_events" int_leaf st.shard_events;
      each "shard_drains" int_leaf st.shard_drains;
      wall_leaf (k ^ "events_per_sec") (eps (st, x));
      each "wait_s" wall_leaf st.wait_s;
      each "busy_s" wall_leaf st.busy_s)
    points;
  let speedup4 = eps (List.assoc 4 points) /. eps base in
  Printf.printf "# %s speedup at 4 shards: %.2fx\n" name speedup4;
  speedup4

let pdes ~min_speedup4 =
  let p = { Experiments.Pdes_bench.default with ops_per_core = pdes_ops } in
  header "pdes: Pdes_bench shard scaling (ops/core=%d, cores=%d)" pdes_ops
    p.cores;
  int_leaf "pdes.ops_per_core" pdes_ops;
  (* cross_posts legitimately varies with the partition (an intra-shard
     IPI at 1 shard is cross-shard at 4), so only sig_n holds it *)
  let counters ((st : Sim.Shard.stats), ()) =
    Printf.sprintf "ev %d, cy %Ld, win %d" st.events st.final_cycles st.windows
  in
  let pdes_speedup4 =
    curve "pdes" ~prefix:"shards"
      ~run:(fun ~deterministic shards ->
        (Experiments.Pdes_bench.run ~deterministic ~shards ~p (), ()))
      ~sig_n:(fun ((st : Sim.Shard.stats), ()) ->
        Printf.sprintf "%s, posts %d" (counters (st, ())) st.cross_posts)
      ~sig_all:counters
      ~extra:(fun _ () -> ())
  in
  let sp =
    { Experiments.Sharded.fig5_params with ops_per_core = sharded_ops }
  in
  header "pdes: Sharded experiment scaling (ops/core=%d, cores=%d, homes=%d)"
    sharded_ops sp.cores sp.homes;
  int_leaf "pdes.sharded_ops_per_core" sharded_ops;
  (* at a fixed shard count everything is deterministic, including the
     per-shard balance counters *)
  let partition ((st : Sim.Shard.stats), ss) =
    Printf.sprintf "%s ev=%d cy=%Ld win=%d"
      (Experiments.Shard_stack.stats_to_string ss)
      st.events st.final_cycles st.windows
  in
  let sharded_speedup4 =
    curve "sharded" ~prefix:"sharded"
      ~run:(fun ~deterministic shards ->
        Experiments.Sharded.run ~deterministic ~shards ~p:sp ())
      ~sig_n:(fun ((st : Sim.Shard.stats), ss) ->
        Printf.sprintf "%s posts=%d ev=[%s] dr=[%s]" (partition (st, ss))
          st.cross_posts (int_list st.shard_events) (int_list st.shard_drains))
      ~sig_all:partition
      ~extra:(fun k (ss : Experiments.Shard_stack.stats) ->
        int_leaf (k ^ "hits") ss.counters.fault_hits;
        int_leaf (k ^ "misses") ss.counters.misses)
  in
  wall_leaf "pdes.speedup4" pdes_speedup4;
  wall_leaf "pdes.sharded_speedup4" sharded_speedup4;
  match min_speedup4 with
  | None -> ()
  | Some floor ->
      let cores = Domain.recommended_domain_count () in
      if cores < 4 then
        Printf.printf
          "# speedup floor skipped: %d core(s) available, need >= 4\n" cores
      else
        List.iter
          (fun (what, sp4) ->
            if sp4 < floor then
              fail "pdes" "%s speedup4 %.2f < floor %.2f (%d cores)" what sp4
                floor cores
            else
              Printf.printf "# %s speedup floor ok: %.2fx >= %.2fx\n" what sp4
                floor)
          [ ("pdes", pdes_speedup4); ("sharded", sharded_speedup4) ]

(* ---- mcache ---- *)

let mcache () =
  header "mcache: replacement-policy ablation (ops/thread=%d)" mcache_ops;
  let virtual_counters rows =
    String.concat "; "
      (List.map
         (fun (r : Experiments.Policy_ablation.row) ->
           Printf.sprintf
             "%s %s ops=%d hits=%d misses=%d ev=%d wb=%d vt=%h events=%d"
             (Experiments.Policy_ablation.workload_name r.workload)
             (Mcache.Policy.kind_to_string r.policy)
             r.ops r.hits r.misses r.evictions r.wb_pages r.vtime_per_op
             r.events)
         rows)
  in
  let rows =
    twice "mcache" virtual_counters (fun () ->
        Experiments.Policy_ablation.sweep ~ops_per_thread:mcache_ops ())
  in
  Experiments.Policy_ablation.print_rows rows;
  List.iter
    (fun (k, v) -> leaf ("mcache." ^ k) v)
    (Experiments.Policy_ablation.leaves rows)

(* ---- cluster ---- *)

let crash_ordinal = 6_000

type failover = {
  acked : int;
  failovers : int;
  resync_pages : int;
  retries : int;
  c_events : int;
  c_final : int64;
  digest : Digest.t;
  violations : string list;
}

(* A client writes 300 keys round-robin over 24 while a fault plan downs
   node 1 at engine event [crash_ordinal]; the node recovers and
   resyncs, a final anti-entropy pass runs, and every acked write must
   read back. *)
let failover () =
  let cfg =
    {
      Aqcluster.Cluster.default_config with
      nodes = 3;
      replicas = 2;
      node = { Aqcluster.Node.cache_frames = 32; wal_pages = 1024 };
      recovery_delay = 2_000_000;
    }
  in
  let eng = Sim.Engine.create () in
  let cl = Aqcluster.Cluster.create ~cfg ~eng () in
  let plan =
    Fault.Plan.make
      { Fault.Plan.default with crash_at = Some crash_ordinal; node = Some 1 }
  in
  let acked_tbl : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  let client name f =
    ignore (Sim.Engine.spawn eng ~name ~core:cfg.nodes f);
    Sim.Engine.run eng
  in
  Fault.with_plan plan (fun () ->
      Aqcluster.Cluster.boot cl;
      Aqcluster.Cluster.arm_fault cl plan;
      let kv = Aqcluster.Cluster.kv cl in
      client "client" (fun () ->
          for i = 0 to 299 do
            let key = Printf.sprintf "key%03d" (i mod 24) in
            let v = Printf.sprintf "v%05d" i in
            match kv.kv_update key v with
            | () -> Hashtbl.replace acked_tbl key v
            | exception Aqcluster.Rpc.Unreachable _ -> ()
          done);
      client "final-resync" (fun () -> ignore (Aqcluster.Cluster.resync cl));
      (* no-lost-acks oracle over the drained, resynced cluster *)
      client "oracle" (fun () ->
          Hashtbl.iter
            (fun key v ->
              match kv.kv_read key with
              | Some v' when String.equal v v' -> ()
              | got ->
                  violations :=
                    Printf.sprintf "key %s: acked %S, read %s" key v
                      (match got with
                      | None -> "nothing"
                      | Some g -> Printf.sprintf "%S" g)
                    :: !violations)
            acked_tbl));
  let st = Aqcluster.Cluster.stats cl in
  {
    acked = st.acked_writes;
    failovers = st.failovers;
    resync_pages = st.resync_pages;
    retries = Aqcluster.Cluster.rpc_retries cl;
    c_events = Sim.Engine.events eng;
    c_final = Sim.Engine.now eng;
    digest = Aqcluster.Cluster.device_digest cl;
    violations =
      List.rev !violations
      @ List.map
          (fun v -> "convergence: " ^ v)
          (Aqcluster.Cluster.convergence_violations cl);
  }

let cluster () =
  header "cluster: crash + failover on 3 nodes x 2 replicas";
  let a, dt = timed cpu failover in
  same "cluster" "repeat"
    (fun r ->
      Printf.sprintf "events %d, cycles %Ld, device bytes %s" r.c_events
        r.c_final (Digest.to_hex r.digest))
    a (failover ());
  List.iter (fail "cluster" "%s") a.violations;
  if a.failovers <> 1 then
    fail "cluster"
      "expected exactly one failover, got %d (crash ordinal %d outside the \
       run?)"
      a.failovers crash_ordinal;
  Printf.printf
    "cluster: %d acked ops, %d failover, %d resync pages, %d retries, %d \
     events, %Ld cycles\n"
    a.acked a.failovers a.resync_pages a.retries a.c_events a.c_final;
  Printf.printf "# cluster: %.3f s\n" dt;
  int_leaf "cluster.acked_ops" a.acked;
  int_leaf "cluster.failovers" a.failovers;
  int_leaf "cluster.resync_pages" a.resync_pages;
  int_leaf "cluster.rpc_retries" a.retries;
  int_leaf "cluster.events" a.c_events;
  cycles_leaf "cluster.final_cycles" a.c_final;
  wall_leaf "cluster" dt

(* ---- openloop ---- *)

type point = {
  name : string;
  arrivals : int;
  completions : int;
  shed : int;
  slo_violations : int;
  p50 : int64;
  p99 : int64;
  p999 : int64;
  o_events : int;
  o_final : int64;
}

let battery () =
  let params =
    { Experiments.Openloop.default_params with slo_cycles = 100_000 }
  in
  List.map
    (fun (kind, rate) ->
      let pt = Experiments.Openloop.run_point params kind ~rate in
      let r = pt.p_res in
      let pc p = Stats.Histogram.percentile r.sojourn p in
      {
        name = Experiments.Openloop.kind_name kind;
        arrivals = r.arrivals;
        completions = r.completions;
        shed = Loadgen.shed r;
        slo_violations = r.slo_violations;
        p50 = pc 50.;
        p99 = pc 99.;
        p999 = pc 99.9;
        o_events = pt.p_events;
        o_final = pt.p_final;
      })
    [
      (Experiments.Openloop.Linux, 4e5);
      (Experiments.Openloop.Aquila, 3.2e6);
      (Experiments.Openloop.Cluster, 4e5);
    ]

let openloop () =
  header "openloop: fixed overload points, 512-deep queue, 100k-cycle SLO";
  let a, dt = timed cpu battery in
  same "openloop" "repeat"
    (fun pts ->
      String.concat "; "
        (List.map
           (fun s ->
             Printf.sprintf
               "%s: %d arrivals, %d done, %d shed, %d slo, p50/p99/p999 \
                %Ld/%Ld/%Ld, %d events, %Ld cycles"
               s.name s.arrivals s.completions s.shed s.slo_violations s.p50
               s.p99 s.p999 s.o_events s.o_final)
           pts))
    a (battery ());
  List.iter
    (fun s ->
      if s.completions = 0 || s.shed = 0 || s.slo_violations = 0 then
        fail "openloop"
          "%s not saturated (completions %d, shed %d, slo %d); retune its rate"
          s.name s.completions s.shed s.slo_violations;
      Printf.printf
        "openloop %-7s %d arrivals, %d done, %d shed, %d slo violations, p99 \
         %Ld cycles, %d events\n"
        s.name s.arrivals s.completions s.shed s.slo_violations s.p99
        s.o_events;
      let k = "openloop." ^ s.name ^ "." in
      int_leaf (k ^ "arrivals") s.arrivals;
      int_leaf (k ^ "completions") s.completions;
      int_leaf (k ^ "shed") s.shed;
      int_leaf (k ^ "slo_violations") s.slo_violations;
      cycles_leaf (k ^ "p50_cycles") s.p50;
      cycles_leaf (k ^ "p99_cycles") s.p99;
      cycles_leaf (k ^ "p999_cycles") s.p999;
      int_leaf (k ^ "events") s.o_events;
      cycles_leaf (k ^ "final_cycles") s.o_final)
    a;
  Printf.printf "# openloop: %.3f s\n" dt;
  wall_leaf "openloop" dt

(* ---- overhead ---- *)

type budgets = { share : float; ns : float }

(* Fails unless every per-call cost in [costs] (seconds) is under
   [b.ns], and the first one, paid at [sites] sites, takes under
   [b.share] of [t]. *)
let bound what b ~costs ~sites ~t =
  let share = snd (List.hd costs) *. float_of_int sites /. t in
  Printf.printf
    "# %s: %s (budget %.1f ns), workload %.3f s -> overhead %.4f%% (budget \
     %.2f%%)\n"
    what
    (String.concat ", "
       (List.map
          (fun (l, c) -> Printf.sprintf "%.2f ns/%s" (c *. 1e9) l)
          costs))
    b.ns t (share *. 100.) (b.share *. 100.);
  List.iter
    (fun (l, c) ->
      wall_leaf (Printf.sprintf "overhead.%s.ns_per_%s" what l) (c *. 1e9);
      if c *. 1e9 >= b.ns then
        fail "overhead" "%s: %.2f ns per %s, budget %.1f ns" what (c *. 1e9) l
          b.ns)
    costs;
  wall_leaf ("overhead." ^ what ^ ".share") share;
  if share >= b.share then
    fail "overhead" "%s: overhead %.4f%%, budget %.2f%%" what (share *. 100.)
      (b.share *. 100.)

type hook_probe = { mutable count : int; mutable hook : (int -> unit) option }

let overhead ~trace ~fault ~metrics ~stores =
  header "overhead: disabled probes and hooks, always-on counters";
  let _, t_micro = best_of 5 cpu (fun () -> micro8) in
  (* trace: probe sites of one traced run; per-call cost of the disabled
     path (flag load + branch + return) *)
  ignore (Trace.start ~capacity_per_core:4096 ());
  ignore (micro8 ());
  let tr = Option.get (Trace.stop ()) in
  let probes = Trace.events_count tr + Trace.dropped tr in
  Printf.printf "trace: %d probe events\n" probes;
  int_leaf "overhead.trace.probe_events" probes;
  let calls = 20_000_000 in
  let _, t_probe =
    best_of 3 cpu (fun () () ->
        for _ = 1 to calls do
          Sim.Probe.instant ~cat:"bench" "off"
        done)
  in
  bound "trace" trace
    ~costs:[ ("probe", t_probe /. float_of_int calls) ]
    ~sites:probes ~t:t_micro;
  (* fault: every engine event visits the crash-hook check, and the loop
     does no device I/O, so its event count is the complete site count *)
  let run_loop () = fault_loop ~iters:fault_iters () () in
  let (sites, final), t_loop = best_of 5 cpu (fun () -> run_loop) in
  let sites_p, final_p =
    Fault.with_plan (Fault.Plan.make Fault.Plan.default) run_loop
  in
  if (sites, final) <> (sites_p, final_p) then
    fail "overhead"
      "all-zero fault plan perturbed the run: (%d events, %Ld cycles) no-plan \
       vs (%d events, %Ld cycles) under Plan.default"
      sites final sites_p final_p;
  Printf.printf "fault: %d hook sites, %d under Plan.default\n" sites sites_p;
  int_leaf "overhead.fault.hook_sites" sites;
  (* Each check's marginal cost next to real work: a base loop bumps a
     counter on a hot record, the instrumented loops add the check.  The
     three are timed back to back in each round, and the median
     difference over rounds rejects the odd descheduled round. *)
  let calls = 50_000_000 and rounds = 5 in
  let probe = { count = 0; hook = None } in
  let base_loop () =
    for _ = 1 to calls do
      let p = Sys.opaque_identity probe in
      p.count <- p.count + 1
    done
  in
  (* the engine's per-event check on a [None] hook *)
  let check_loop () =
    for _ = 1 to calls do
      let p = Sys.opaque_identity probe in
      p.count <- p.count + 1;
      match p.hook with Some f -> f p.count | None -> ()
    done
  in
  (* the device-site check: atomic load + domain-local lookup *)
  let active_loop () =
    for _ = 1 to calls do
      let p = Sys.opaque_identity probe in
      p.count <- p.count + 1;
      ignore (Sys.opaque_identity (Fault.active ()))
    done
  in
  let dc = Array.make rounds 0. and da = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let _, tb = timed cpu base_loop in
    let _, tc = timed cpu check_loop in
    let _, ta = timed cpu active_loop in
    dc.(r) <- tc -. tb;
    da.(r) <- ta -. tb
  done;
  let per_call d =
    Array.sort compare d;
    Float.max 0. (d.(rounds / 2) /. float_of_int calls)
  in
  bound "fault" fault
    ~costs:[ ("check", per_call dc); ("active", per_call da) ]
    ~sites ~t:t_loop;
  (* metrics: per-store cost of a bound cell minus the empty loop.  The
     cell is registered after the metrics section's snapshot, so it never
     appears in BENCH.json. *)
  Printf.printf "metrics: ~%d stores\n" stores;
  int_leaf "overhead.metrics.stores" stores;
  let cell = Metrics.Registry.counter ~help:"calibration loop" "bench_calib" in
  let calls = 20_000_000 in
  let _, t_store =
    best_of 3 cpu (fun () () ->
        for _ = 1 to calls do
          Metrics.Registry.incr cell
        done)
  in
  let _, t_empty =
    best_of 3 cpu (fun () () ->
        for i = 1 to calls do
          ignore (Sys.opaque_identity i)
        done)
  in
  bound "metrics" metrics
    ~costs:
      [ ("store", Float.max 0. (t_store -. t_empty) /. float_of_int calls) ]
    ~sites:stores ~t:t_micro

(* ---- the run ---- *)

let commit () =
  let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some c when c <> "" -> c
  | _ -> "unknown"

let bench () =
  let budgets share ns ~default:(s, n) =
    {
      share = Option.value (knob share) ~default:s;
      ns = Option.value (knob ns) ~default:n;
    }
  in
  let trace =
    budgets "TRACE_SMOKE_MAX" "TRACE_SMOKE_MAX_NS" ~default:(0.02, 10.)
  in
  let fault =
    budgets "FAULT_SMOKE_MAX" "FAULT_SMOKE_MAX_NS" ~default:(0.01, 10.)
  in
  let metrics_b =
    budgets "METRICS_SMOKE_MAX" "METRICS_SMOKE_MAX_NS" ~default:(0.01, 8.)
  in
  let min_speedup4 = knob "ENGINE_PERF_MIN_SPEEDUP4" in
  let stores = metrics () in
  engine ();
  pdes ~min_speedup4;
  mcache ();
  cluster ();
  openloop ();
  overhead ~trace ~fault ~metrics:metrics_b ~stores;
  write_json "BENCH.json"
    ([
       ("nproc", string_of_int (Domain.recommended_domain_count ()));
       ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
       ("commit", Printf.sprintf "%S" (commit ()));
     ]
    @ List.rev !leaves);
  print_endline "wrote BENCH.json";
  if !failures <> [] then begin
    List.iter (Printf.printf "FAIL %s\n") (List.rev !failures);
    exit 1
  end

(* ---- gate ---- *)

exception Parse of string

(* The (key, number) members of a flat JSON object whose values are
   numbers or strings, the shape BENCH.json has; string members
   (provenance) are skipped. *)
let parse_flat src =
  let n = String.length src and pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "at byte %d: %s" !pos msg)) in
  let skip_ws () =
    while !pos < n && String.contains " \t\r\n" src.[!pos] do
      incr pos
    done
  in
  let at c = skip_ws (); !pos < n && src.[!pos] = c in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 32 in
    while !pos < n && src.[!pos] <> '"' do
      if src.[!pos] = '\\' && !pos + 1 < n then incr pos;
      Buffer.add_char b src.[!pos];
      incr pos
    done;
    if !pos >= n then fail "unterminated string";
    incr pos;
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "0123456789+-.eE" src.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> f
    | None -> fail "expected a number or a string"
  in
  let out = ref [] in
  expect '{';
  if at '}' then incr pos
  else begin
    let more = ref true in
    while !more do
      let k = string_lit () in
      expect ':';
      if at '"' then ignore (string_lit ()) else out := (k, number ()) :: !out;
      if at ',' then incr pos
      else begin
        expect '}';
        more := false
      end
    done
  end;
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  List.rev !out

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2
  | src -> (
      try parse_flat src
      with Parse msg ->
        Printf.eprintf "bench: %s: %s\n" path msg;
        exit 2)

type dir = Lower | Higher

let threshold = 0.25

let leaf_name key =
  (* aqmetrics keys carry a {label=value,...} suffix
     ("mcache_hits{policy=clock}"); the gated leaf is the family name with
     that suffix stripped, so one rule covers every labelled series. *)
  let key =
    match String.index_opt key '{' with
    | Some i -> String.sub key 0 i
    | None -> key
  in
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

(* Only deterministic virtual counters are gated.  Wall-clock leaves
   ("wall") and anything else no rule names are recorded, never gated. *)
let dir_of key =
  match leaf_name key with
  | "vtime_per_op" | "misses" | "evictions" | "wb_pages" | "final_cycles" ->
      Some Lower
  (* engine workloads and the pdes curves: event totals, cross-shard
     deliveries and barrier windows are exact functions of the schedule —
     more of any of them is a regression *)
  | "events" | "cross_posts" | "windows" -> Some Lower
  | "hit_rate" -> Some Higher
  (* aqmetrics families (labelled series).  engine_events_fast is
     deliberately ungated — fast-path/queued shifts are legal
     optimizations. *)
  | "mcache_hits" -> Some Higher
  | "mcache_misses" | "mcache_evictions" | "mcache_wb_pages" | "mcache_sigbus"
  | "hw_tlb_misses" | "hw_tlb_shootdowns" | "aquila_page_faults"
  | "engine_events" | "sdevice_reads" | "sdevice_writes" | "fault_injected"
  | "linux_cache_misses" ->
      Some Lower
  (* the cluster scenario is a fixed schedule, so fewer acked ops — or
     more failovers, resync pages or retries — means replication or
     recovery got worse *)
  | "acked_ops" -> Some Higher
  | "failovers" | "resync_pages" | "rpc_retries" -> Some Lower
  (* fixed open-loop overload points: the sojourn tail, the shed and
     SLO-violation counts and the completion total are exact functions of
     the backend's service path.  p50_cycles stays advisory: the median
     moves with benign scheduling shifts the tail gate already bounds. *)
  | "completions" -> Some Higher
  | "shed" | "slo_violations" | "p99_cycles" | "p999_cycles" -> Some Lower
  | _ -> None

type verdict = {
  regressions : (string * float * float) list;
  missing : string list;
  checked : int;
}

(* A gated baseline counter fails when it moved past the threshold in its
   bad direction, or when the current run lacks it.  Counters only the
   current run has are new, not failures. *)
let gate baseline current =
  let cur = Hashtbl.create 512 in
  List.iter (fun (k, v) -> Hashtbl.replace cur k v) current;
  let v =
    List.fold_left
      (fun v (k, b) ->
        match (dir_of k, Hashtbl.find_opt cur k) with
        | None, _ -> v
        | Some _, None -> { v with missing = k :: v.missing }
        | Some d, Some c ->
            let bad =
              if b = 0. then d = Lower && c > 0.
              else
                match d with
                | Lower -> c > b *. (1. +. threshold)
                | Higher -> c < b *. (1. -. threshold)
            in
            {
              v with
              checked = v.checked + 1;
              regressions =
                (if bad then (k, b, c) :: v.regressions else v.regressions);
            })
      { regressions = []; missing = []; checked = 0 }
      baseline
  in
  { v with regressions = List.rev v.regressions; missing = List.rev v.missing }

let failed v = v.regressions <> [] || v.missing <> []

let tripped_on k v =
  List.exists (fun (k', _, _) -> k' = k) v.regressions || List.mem k v.missing

let report v =
  List.iter
    (fun (k, b, c) ->
      Printf.printf "REGRESSION %-40s baseline %.4f -> current %.4f\n" k b c)
    v.regressions;
  List.iter (Printf.printf "MISSING    %s\n") v.missing;
  Printf.printf
    "gate: %d counters checked, %d regressions, %d missing (threshold %.0f%%)\n"
    v.checked (List.length v.regressions) (List.length v.missing)
    (100. *. threshold)

(* The teeth test, same idea as faultcheck --broken: FILE against itself
   must pass, and a >threshold move of any nonzero gated counter, or the
   deletion of any gated counter, must trip the gate on that counter. *)
let selftest path =
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "selftest FAIL: %s\n" msg;
        exit 1)
      fmt
  in
  let base = load path in
  let gated = List.filter (fun (k, _) -> dir_of k <> None) base in
  if gated = [] then die "%s has no gated counters" path;
  let clean = gate base base in
  if failed clean then begin
    report clean;
    die "file-vs-itself reported regressions"
  end;
  let nonzero = List.filter (fun (_, v) -> v <> 0.) gated in
  if nonzero = [] then die "every gated counter is zero — nothing proven";
  let missed =
    List.filter_map
      (fun (k, v) ->
        let factor = if dir_of k = Some Lower then 1.5 else 0.5 in
        let cur =
          List.map
            (fun (k', v') -> (k', if k' = k then v *. factor else v'))
            base
        in
        if tripped_on k (gate base cur) then None else Some ("perturbed " ^ k))
      nonzero
    @ List.filter_map
        (fun (k, _) ->
          if tripped_on k (gate base (List.remove_assoc k base)) then None
          else Some ("deleted " ^ k))
        gated
  in
  Printf.printf
    "selftest: %d gated counters perturbed, %d zero-valued skipped, %d \
     deleted, %d missed\n"
    (List.length nonzero)
    (List.length gated - List.length nonzero)
    (List.length gated) (List.length missed);
  if missed <> [] then begin
    List.iter (Printf.printf "selftest FAIL: gate did not trip on %s\n") missed;
    exit 1
  end;
  print_endline "selftest: ok (every fabricated regression tripped the gate)"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> bench ()
  | [ "gate"; "--selftest"; path ] -> selftest path
  | [ "gate"; base; cur ] ->
      let v = gate (load base) (load cur) in
      report v;
      if v.checked = 0 then begin
        print_endline "gate: nothing gated — refusing to pass vacuously";
        exit 1
      end;
      if failed v then exit 1
  | _ ->
      prerr_endline
        "usage: run.exe\n\
        \       run.exe gate BASELINE.json CURRENT.json\n\
        \       run.exe gate --selftest FILE.json";
      exit 2
