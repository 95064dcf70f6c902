(* Engine throughput benchmark: events/sec on the DES hot path.

   Single-engine workloads:

   - a fault-heavy event loop exercising exactly the engine-facing slice
     of the Aquila fault path (costbuf accumulate + charge, labeled
     delays, occasional device idle_wait), where nearly every event is
     eligible for the delay fast path;

   - the real Aquila microbenchmark stack (page faults, evictions, I/O)
     at 1 and 16 simulated threads, where fibers contend for the virtual
     timeline and the fast path hits less often.

   Each runs with the fast path enabled and disabled ([Engine.create
   ~fastpath:false] forces every event through the queue); the ratio is
   the fast path's win.  The run doubles as the determinism smoke:
   same-seed runs must agree on event count and final virtual time with
   the fast path on, off, and across repetitions — any mismatch exits
   non-zero.  Results land in BENCH_engine.json.

   PDES scaling curve (BENCH_pdes.json): the Experiments.Pdes_bench
   fig-scale workload (32 per-core Aquila stacks + ring IPIs) on a
   Sim.Shard cluster at 1/2/4/8 shards.  Each shard count runs
   free-running twice and deterministic-merge once; all three must agree
   on events / final_cycles / cross_posts / windows (and those counters
   must match shards=1), which is what CI gates — wall-clock speedup is
   reported with ".wall" keys the perf gate skips, together with each
   shard's split of its run-phase wall time into barrier wait and busy
   time.  Set ENGINE_PERF_MIN_SPEEDUP4 to enforce a floor on the
   4-shard speedup (only meaningful on a machine with >= 4 cores;
   skipped with a warning otherwise).

   Throughput denominators count the run phase only: single-engine
   workloads time Engine.run / Microbench.run (not stack construction),
   and cluster runs use Shard stats' run_wall_s, which is stamped inside
   the cluster's barriers and so excludes Domain.spawn, per-shard
   builders, and join/teardown.  Wall-clock uses Unix.gettimeofday —
   CPU time would make parallel speedup invisible by construction. *)

(* Knobs.  A malformed value stops the run instead of quietly turning
   into a default. *)
let knob name parse ~what =
  Option.map
    (fun s ->
      match parse (String.trim s) with
      | Some v -> v
      | None ->
          Printf.eprintf "engine_perf: %s=%S is not %s\n%!" name s what;
          exit 2)
    (Sys.getenv_opt name)

let int_knob name ~default =
  let positive s =
    match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None
  in
  Option.value ~default (knob name positive ~what:"a positive integer")

let iters = int_knob "ENGINE_PERF_ITERS" ~default:1_000_000
let pdes_ops = int_knob "ENGINE_PERF_PDES_OPS" ~default:1500
let sharded_ops = int_knob "ENGINE_PERF_SHARDED_OPS" ~default:400

(* floor on the 4-shard speedup of both cluster workloads, enforced
   where the runner has the cores to express it *)
let min_speedup4 =
  knob "ENGINE_PERF_MIN_SPEEDUP4" ~what:"a positive number" (fun s ->
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0. -> Some f
      | _ -> None)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- workload 1: fault-heavy event loop ---- *)

let fault_loop ~fastpath () =
  let eng = Sim.Engine.create ~seed:7 ~fastpath () in
  ignore
    (Sim.Engine.spawn eng ~name:"faulter" (fun () ->
         let rng = Sim.Engine.rng eng in
         let buf = Sim.Costbuf.create () in
         for _ = 1 to iters do
           (* the engine-facing slice of one page fault *)
           Sim.Costbuf.add buf "index" 160L;
           Sim.Costbuf.add buf "alloc" 90L;
           Sim.Costbuf.add buf "map" 210L;
           Sim.Costbuf.add buf "tlb" 120L;
           Sim.Costbuf.add buf "index" 60L;
           Sim.Costbuf.charge buf;
           Sim.Engine.delay ~label:"app" 300L;
           if Sim.Rng.int rng 8 = 0 then Sim.Engine.idle_wait 1200L
         done));
  let (), dt = wall (fun () -> Sim.Engine.run eng) in
  ((Sim.Engine.events eng, Sim.Engine.now eng), dt)

(* ---- workload 2: the real Aquila stack ---- *)

let aquila_micro ~fastpath ~threads () =
  let eng = Sim.Engine.create ~seed:42 ~fastpath () in
  let stack =
    Experiments.Scenario.make_aquila ~frames:1024 ~dev:Experiments.Scenario.Pmem
      ()
  in
  (* times the microbench run (its own engine runs included), not the
     stack construction above *)
  let _, dt =
    wall (fun () ->
        Experiments.Microbench.run ~eng
          ~sys:(Experiments.Microbench.Aq stack)
          ~file_pages:4096 ~shared:true ~threads
          ~ops_per_thread:(40_000 / threads) ~write_fraction:0.3 ())
  in
  ((Sim.Engine.events eng, Sim.Engine.now eng), dt)

(* ---- measurement ---- *)

type meas = {
  events : int;
  final : int64;
  eps_fast : float;
  eps_slow : float;
  speedup : float;
}

let failures = ref []

let check_same what (ea, ta) (eb, tb) =
  if ea <> eb || ta <> tb then
    failures :=
      Printf.sprintf "%s: (%d events, %Ld cycles) vs (%d events, %Ld cycles)"
        what ea ta eb tb
      :: !failures

let best_of n f =
  let best = ref infinity in
  let out = ref (0, 0L) in
  for _ = 1 to n do
    let r, dt = f () in
    out := r;
    if dt < !best then best := dt
  done;
  (!out, !best)

let measure name run =
  let (e1, t1), dt_fast = best_of 3 (run ~fastpath:true) in
  let (e2, t2), dt_slow = best_of 3 (run ~fastpath:false) in
  let (e3, t3), _ = best_of 1 (run ~fastpath:true) in
  check_same (name ^ " fastpath-vs-queue") (e1, t1) (e2, t2);
  check_same (name ^ " repeat-same-seed") (e1, t1) (e3, t3);
  let eps dt = float_of_int e1 /. dt in
  {
    events = e1;
    final = t1;
    eps_fast = eps dt_fast;
    eps_slow = eps dt_slow;
    speedup = eps dt_fast /. eps dt_slow;
  }

let meps x = x /. 1e6

let report name m =
  Printf.printf
    "%-24s %9d events  end %12Ld cy  %7.2f Mev/s fast  %7.2f Mev/s queued  %5.2fx\n%!"
    name m.events m.final (meps m.eps_fast) (meps m.eps_slow) m.speedup

let json_field name m =
  Printf.sprintf
    "  \"%s\": {\"events\": %d, \"final_cycles\": %Ld, \"events_per_sec\": \
     %.0f, \"events_per_sec_queued\": %.0f, \"speedup\": %.3f}"
    name m.events m.final m.eps_fast m.eps_slow m.speedup

(* ---- PDES shard-scaling curve ---- *)

type pmeas = { st : Sim.Shard.stats; eps : float }

let pdes_counters (s : Sim.Shard.stats) =
  (s.events, s.final_cycles, s.cross_posts, s.windows)

let pdes_check what a b =
  let (ea, ta, pa, wa) = pdes_counters a and (eb, tb, pb, wb) = pdes_counters b in
  if (ea, ta, pa, wa) <> (eb, tb, pb, wb) then
    failures :=
      Printf.sprintf
        "%s: (ev %d, cy %Ld, posts %d, win %d) vs (ev %d, cy %Ld, posts %d, win %d)"
        what ea ta pa wa eb tb pb wb
      :: !failures

let pdes_measure p ~shards =
  let free1 = Experiments.Pdes_bench.run ~shards ~p () in
  let free2 = Experiments.Pdes_bench.run ~shards ~p () in
  let det = Experiments.Pdes_bench.run ~deterministic:true ~shards ~p () in
  pdes_check (Printf.sprintf "pdes shards=%d repeat" shards) free1 free2;
  pdes_check (Printf.sprintf "pdes shards=%d det-vs-free" shards) free1 det;
  let best = if free2.run_wall_s < free1.run_wall_s then free2 else free1 in
  { st = best; eps = float_of_int best.events /. best.run_wall_s }

let secs_array a =
  String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") a))

(* where each shard's run-phase wall time went: the window barrier vs
   delivering posts and running events *)
let split_report (st : Sim.Shard.stats) =
  Printf.printf "    per shard: barrier wait [%s] s, busy [%s] s\n%!"
    (secs_array st.Sim.Shard.wait_s) (secs_array st.Sim.Shard.busy_s)

let split_json (st : Sim.Shard.stats) =
  Printf.sprintf "\"wait_s.wall\": [%s], \"busy_s.wall\": [%s]"
    (secs_array st.Sim.Shard.wait_s) (secs_array st.Sim.Shard.busy_s)

let pdes_report n m =
  Printf.printf
    "pdes %d shard(s)          %9d events  end %12Ld cy  %5d windows  %6d cross  %7.2f Mev/s\n%!"
    n m.st.events m.st.final_cycles m.st.windows m.st.cross_posts (meps m.eps);
  split_report m.st

let int_array a =
  String.concat ", " (Array.to_list (Array.map string_of_int a))

let pdes_json n m =
  Printf.sprintf
    "  \"shards%d\": {\"events\": %d, \"final_cycles\": %Ld, \"cross_posts\": \
     %d, \"windows\": %d, \"shard_events\": [%s], \"shard_drains\": [%s], \
     \"events_per_sec.wall\": %.0f, %s}"
    n m.st.events m.st.final_cycles m.st.cross_posts m.st.windows
    (int_array m.st.shard_events) (int_array m.st.shard_drains) m.eps
    (split_json m.st)

(* ---- sharded experiment curve (Experiments.Sharded, fig5 shape) ----

   Same discipline as the pdes curve, on the shard-owned partitioned
   cache stack: free-running twice + deterministic once per shard count.
   At a fixed shard count EVERYTHING is deterministic, including
   cross_posts and the per-shard balance counters, so the per-count gate
   compares those too; across shard counts only the invariant signature
   (partition counters + events/final_cycles/windows) must match. *)

type smeas = { sst : Sim.Shard.stats; shub : Experiments.Shard_stack.stats; seps : float }

let sharded_sig (st : Sim.Shard.stats) ss =
  Printf.sprintf "%s ev=%d cy=%Ld win=%d"
    (Experiments.Shard_stack.stats_to_string ss)
    st.Sim.Shard.events st.Sim.Shard.final_cycles st.Sim.Shard.windows

let sharded_sig_n (st : Sim.Shard.stats) ss =
  Printf.sprintf "%s posts=%d ev=[%s] dr=[%s]" (sharded_sig st ss)
    st.Sim.Shard.cross_posts
    (int_array st.Sim.Shard.shard_events)
    (int_array st.Sim.Shard.shard_drains)

let sig_check what a b =
  if a <> b then
    failures := Printf.sprintf "%s: %s vs %s" what a b :: !failures

let sharded_measure p ~shards =
  let go ?deterministic () =
    Experiments.Sharded.run ?deterministic ~shards ~p ()
  in
  let st1, ss1 = go () in
  let st2, ss2 = go () in
  let st3, ss3 = go ~deterministic:true () in
  sig_check
    (Printf.sprintf "sharded shards=%d repeat" shards)
    (sharded_sig_n st1 ss1) (sharded_sig_n st2 ss2);
  sig_check
    (Printf.sprintf "sharded shards=%d det-vs-free" shards)
    (sharded_sig_n st1 ss1) (sharded_sig_n st3 ss3);
  let best =
    if st2.Sim.Shard.run_wall_s < st1.Sim.Shard.run_wall_s then st2 else st1
  in
  {
    sst = best;
    shub = ss1;
    seps = float_of_int best.Sim.Shard.events /. best.Sim.Shard.run_wall_s;
  }

let sharded_report n m =
  Printf.printf
    "sharded %d shard(s)       %9d events  end %12Ld cy  %5d windows  %6d cross  %7.2f Mev/s\n%!"
    n m.sst.Sim.Shard.events m.sst.Sim.Shard.final_cycles
    m.sst.Sim.Shard.windows m.sst.Sim.Shard.cross_posts (meps m.seps);
  split_report m.sst

let sharded_json n m =
  Printf.sprintf
    "  \"sharded%d\": {\"events\": %d, \"final_cycles\": %Ld, \"cross_posts\": \
     %d, \"windows\": %d, \"hits\": %d, \"misses\": %d, \"shard_events\": \
     [%s], \"shard_drains\": [%s], \"events_per_sec.wall\": %.0f, %s}"
    n m.sst.Sim.Shard.events m.sst.Sim.Shard.final_cycles
    m.sst.Sim.Shard.cross_posts m.sst.Sim.Shard.windows
    m.shub.Experiments.Shard_stack.counters.Mcache.Partition.fault_hits
    m.shub.Experiments.Shard_stack.counters.Mcache.Partition.misses
    (int_array m.sst.Sim.Shard.shard_events)
    (int_array m.sst.Sim.Shard.shard_drains)
    m.seps (split_json m.sst)

let () =
  Printf.printf "=== engine_perf: DES hot-path throughput (iters=%d) ===\n%!" iters;
  let loop = measure "fault_loop" (fun ~fastpath () -> fault_loop ~fastpath ()) in
  report "fault-loop (1 fiber)" loop;
  let aq1 = measure "aquila_t1" (fun ~fastpath () -> aquila_micro ~fastpath ~threads:1 ()) in
  report "aquila stack, 1 thread" aq1;
  let aq16 = measure "aquila_t16" (fun ~fastpath () -> aquila_micro ~fastpath ~threads:16 ()) in
  report "aquila stack, 16 threads" aq16;
  Printf.printf "=== engine_perf: PDES shard scaling (ops/core=%d, cores=%d) ===\n%!"
    pdes_ops Experiments.Pdes_bench.default.cores;
  let p = { Experiments.Pdes_bench.default with ops_per_core = pdes_ops } in
  let curve = List.map (fun n -> (n, pdes_measure p ~shards:n)) [ 1; 2; 4; 8 ] in
  List.iter (fun (n, m) -> pdes_report n m) curve;
  (* the virtual-time outcome must also be invariant across shard counts
     — same workload, same schedule, different partition.  cross_posts
     legitimately varies with the partition (an intra-shard IPI at n=1
     is cross-shard at n=4), so it is gated per shard count above but
     excluded here. *)
  (match curve with
  | (_, base) :: rest ->
      List.iter
        (fun (n, m) ->
          if
            (base.st.events, base.st.final_cycles, base.st.windows)
            <> (m.st.events, m.st.final_cycles, m.st.windows)
          then
            failures :=
              Printf.sprintf
                "pdes shards=%d vs shards=1: (ev %d, cy %Ld, win %d) vs (ev \
                 %d, cy %Ld, win %d)"
                n m.st.events m.st.final_cycles m.st.windows base.st.events
                base.st.final_cycles base.st.windows
              :: !failures)
        rest
  | [] -> ());
  let speedup4 =
    let e1 = (List.assoc 1 curve).eps and e4 = (List.assoc 4 curve).eps in
    e4 /. e1
  in
  Printf.printf "pdes speedup at 4 shards: %.2fx\n%!" speedup4;
  (* the shard-owned experiment stack (Experiments.Sharded): the same
     free x2 + deterministic x1 discipline, plus the partition counters
     in the gated signature *)
  Printf.printf
    "=== engine_perf: sharded experiment scaling (ops/core=%d, cores=%d, \
     homes=%d) ===\n%!"
    sharded_ops Experiments.Sharded.fig5_params.Experiments.Sharded.cores
    Experiments.Sharded.fig5_params.Experiments.Sharded.homes;
  let sp =
    { Experiments.Sharded.fig5_params with ops_per_core = sharded_ops }
  in
  let scurve = List.map (fun n -> (n, sharded_measure sp ~shards:n)) [ 1; 2; 4; 8 ] in
  List.iter (fun (n, m) -> sharded_report n m) scurve;
  (match scurve with
  | (_, base) :: rest ->
      List.iter
        (fun (n, m) ->
          sig_check
            (Printf.sprintf "sharded shards=%d vs shards=1" n)
            (sharded_sig base.sst base.shub)
            (sharded_sig m.sst m.shub))
        rest
  | [] -> ());
  let sharded_speedup4 =
    let e1 = (List.assoc 1 scurve).seps and e4 = (List.assoc 4 scurve).seps in
    e4 /. e1
  in
  Printf.printf "sharded speedup at 4 shards: %.2fx\n%!" sharded_speedup4;
  (match min_speedup4 with
  | None -> ()
  | Some floor ->
      let cores = Domain.recommended_domain_count () in
      if cores < 4 then
        Printf.printf
          "speedup floor skipped: %d core(s) available, need >= 4\n%!" cores
      else
        List.iter
          (fun (what, sp4) ->
            if sp4 < floor then begin
              Printf.printf
                "%s SCALING FAIL: %.2fx at 4 shards, floor %.2fx (%d cores)\n%!"
                (String.uppercase_ascii what) sp4 floor cores;
              failures :=
                Printf.sprintf "%s speedup4 %.2f < floor %.2f" what sp4 floor
                :: !failures
            end
            else
              Printf.printf "%s speedup floor ok: %.2fx >= %.2fx\n%!" what sp4
                floor)
          [ ("pdes", speedup4); ("sharded", sharded_speedup4) ]);
  let ok = !failures = [] in
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc "{\n  \"bench\": \"engine_perf\",\n  \"iters\": %d,\n%s,\n%s,\n%s,\n  \"determinism\": %s\n}\n"
    iters
    (json_field "fault_loop" loop)
    (json_field "aquila_t1" aq1)
    (json_field "aquila_t16" aq16)
    (if ok then "\"ok\"" else "\"FAIL\"");
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n";
  let oc = open_out "BENCH_pdes.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"pdes_scaling\",\n  \"ops_per_core\": %d,\n  \
     \"sharded_ops_per_core\": %d,\n%s,\n%s,\n  \"speedup4.wall\": %.3f,\n  \
     \"sharded_speedup4.wall\": %.3f,\n  \"determinism\": %s\n}\n"
    pdes_ops sharded_ops
    (String.concat ",\n" (List.map (fun (n, m) -> pdes_json n m) curve))
    (String.concat ",\n" (List.map (fun (n, m) -> sharded_json n m) scurve))
    speedup4 sharded_speedup4
    (if ok then "\"ok\"" else "\"FAIL\"");
  close_out oc;
  Printf.printf "wrote BENCH_pdes.json\n";
  if not ok then begin
    List.iter (Printf.printf "DETERMINISM FAIL %s\n") !failures;
    exit 1
  end;
  Printf.printf
    "determinism: ok (counters identical across fastpath, repetition, shard \
     count, and det/free mode)\n"
