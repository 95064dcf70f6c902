(* Command-line driver for the Aquila reproduction experiments. *)

open Cmdliner

let list_cmd =
  let doc = "List all reproducible tables and figures." in
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "%-8s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_entries ?jobs ?fault entries =
  Printf.printf "Aquila reproduction — %s\n%!" Experiments.Scenario.scale_note;
  Experiments.Registry.run_selected ?jobs ?fault entries

let resolve id =
  if id = "all" then Ok Experiments.Registry.all
  else
    match Experiments.Registry.find_prefix id with
    | [] -> Error (Printf.sprintf "unknown experiment %S" id)
    | entries -> Ok entries

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run up to $(docv) experiments in parallel (OCaml domains). \
              Each experiment owns its engine, RNG and seeds, so results \
              and output bytes are identical to a sequential run.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the merged aqmetrics snapshot of the run to $(docv): \
              Prometheus text exposition if it ends in .prom or .txt, a \
              flat JSON snapshot otherwise.  Counters merge across \
              $(b,--jobs) domains, so the file is byte-identical at any \
              parallelism.")

let policy_conv =
  let parse s =
    match Mcache.Policy.kind_of_string s with
    | Ok k -> Ok k
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Mcache.Policy.kind_to_string k))

let policy_arg =
  Arg.(
    value
    & opt policy_conv Mcache.Policy.Clock
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Cache replacement policy for every Aquila stack: $(docv) is \
              'clock' (default, the paper's fault-driven LRU \
              approximation), 'fifo', 'lru', '2q' or 'random[:SEED]' \
              (seeded sampled-LRU).  Policies charge their own bookkeeping \
              cycles, so results differ in virtual time as well as hit \
              rate.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"SPEC"
        ~doc:"Inject seeded device faults, e.g. \
              'seed=7,read=0.001,write=0.001,torn=0.5,spike=0.01,spikex=8'. \
              Each job builds its own plan from $(docv), so injection \
              composes with $(b,--jobs) and stays deterministic.")

let crash_at_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-at" ] ~docv:"EVENT"
        ~doc:"Cut the power at engine event $(docv) (shorthand for \
              'crash=$(docv)' in $(b,--fault-plan)); the run reports the \
              cut and discards volatile state.")

(* The fault plan of --fault-plan and --crash-at, or a message naming
   the malformed flag. *)
let fault_spec_of plan crash_at =
  match (plan, crash_at) with
  | _, Some at when at < 0 ->
      Error (Printf.sprintf "--crash-at: must be >= 0, got %d" at)
  | None, None -> Ok None
  | _ ->
      let base =
        match plan with
        | None -> Ok Fault.Plan.default
        | Some s ->
            Result.map_error (fun msg -> "--fault-plan: " ^ msg)
              (Fault.Plan.parse s)
      in
      Result.map
        (fun spec ->
          match crash_at with
          | None -> Some spec
          | Some at -> Some { spec with Fault.Plan.crash_at = Some at })
        base

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:"Run the 's'-suffixed shard-partitioned experiments (fig5s, \
              fig10s, crashs) as a cluster of $(docv) shards, each with \
              its own engine, free-running one OCaml domain per shard \
              (DESIGN.md section 9).  Their terminal stats are \
              byte-identical at any shard count; only the '#'-prefixed \
              balance lines vary.  Every other experiment runs one engine \
              and ignores the flag.  Contrast with $(b,--jobs), which \
              fans out across independent experiments.")

let deterministic_arg =
  Arg.(
    value
    & flag
    & info [ "deterministic" ]
        ~doc:"Run the 's'-suffixed shard-partitioned experiments in \
              deterministic mode — one domain replaying the $(b,--shards) \
              shards window by window — instead of free-running across \
              OCaml domains.  Terminal stats are byte-identical either way \
              (the CI parity gates compare them).")

(* The tracer and the profiler are domain-local: worker domains and the
   shards of a free-running cluster would record nothing.  While one is
   on ([observer] names its flags) the run stays on one domain, with a
   note for each flag it overrides; the result is the --jobs to use. *)
let set_domains ~observer ~jobs ~shards ~deterministic =
  let force flag on =
    match observer with
    | Some o when on ->
        Printf.eprintf "aquila_cli: %s forces %s\n%!" o flag;
        true
    | _ -> false
  in
  let jobs = if force "--jobs 1" (jobs > 1) then 1 else jobs in
  Experiments.Sharded.set_mode ~shards
    ~deterministic:(deterministic || force "--deterministic" (shards > 1));
  jobs

let run_cmd =
  let doc = "Run one experiment (or 'all'), optionally under the observers." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the experiment(s) selected by $(i,ID).  An id prefix selects \
         every matching experiment, so 'run fig5' runs fig5a and fig5b.";
      `P
        "The observers are off unless asked for.  $(b,--trace), \
         $(b,--csv) and $(b,--summary) record a virtual-time trace (cores \
         appear as processes, fibers as threads; one trace microsecond \
         equals one simulated cycle).  $(b,--report) prints the run's \
         merged counter/gauge/histogram snapshot as a table (nonzero \
         series only) and $(b,--metrics-out) writes it to a file; both \
         are byte-identical at any $(b,--jobs) level.  $(b,--profile) and \
         $(b,--timeseries) run the virtual-time sampling profiler.  The \
         tracer and the profiler force a sequential run.";
    ]
  in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:"Experiment id or prefix (see 'list'), or 'all'.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a virtual-time trace and write Chrome Trace Event \
                JSON to $(docv) (open in Perfetto or chrome://tracing).  \
                Forces $(b,--jobs) 1 and $(b,--deterministic).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Record a trace and write its events as flat CSV to $(docv).")
  in
  let summary =
    Arg.(
      value
      & opt int 0
      & info [ "summary" ] ~docv:"N"
          ~doc:"Record a trace and print its top $(docv) spans by total \
                cycles (0 prints none).")
  in
  let buffer =
    Arg.(
      value
      & opt int 65536
      & info [ "buffer" ] ~docv:"SLOTS"
          ~doc:"Per-core trace ring capacity in events; oldest events are \
                dropped on overflow (the drop count is recorded in the \
                trace).")
  in
  let report =
    Arg.(
      value
      & flag
      & info [ "report" ]
          ~doc:"Print the run's nonzero metrics as a table after it ends.")
  in
  let families =
    Arg.(
      value
      & flag
      & info [ "families" ]
          ~doc:"Also print the registered metric families with their help \
                strings (implies $(b,--report)).")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Write a folded-stack virtual-time profile to $(docv) \
                (one 'fiber;label count' line per stack; feed to \
                flamegraph.pl or speedscope).  Forces $(b,--jobs) 1 and \
                $(b,--deterministic).")
  in
  let sample_period =
    Arg.(
      value
      & opt int 10_000
      & info [ "sample-period" ] ~docv:"CYCLES"
          ~doc:"Profiler sampling grid in virtual cycles.")
  in
  let timeseries =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeseries" ] ~docv:"FILE"
          ~doc:"Write a long-format CSV (cycles,key,value) sampling every \
                metric on a virtual-time grid.  Forces $(b,--jobs) 1 and \
                $(b,--deterministic).")
  in
  let ts_period =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "timeseries-period" ] ~docv:"CYCLES"
          ~doc:"Timeseries sampling period in virtual cycles.")
  in
  let run id jobs shards deterministic plan crash_at policy metrics_out trace
      csv summary buffer report families profile sample_period timeseries
      ts_period =
    match (resolve id, fault_spec_of plan crash_at) with
    | Error msg, _ -> `Error (false, msg)
    | _, Error msg -> `Error (true, msg)
    | Ok _, _ when jobs < 1 -> `Error (true, "--jobs must be >= 1")
    | Ok _, _ when shards < 1 -> `Error (true, "--shards must be >= 1")
    | Ok _, _ when buffer <= 0 ->
        `Error (true, "--buffer must be a positive number of events")
    | Ok _, _ when sample_period <= 0 || ts_period <= 0 ->
        `Error (true, "--sample-period and --timeseries-period must be > 0")
    | Ok entries, Ok fault ->
        Experiments.Scenario.set_policy policy;
        let summary = if summary > 0 then Some summary else None in
        let jobs =
          set_domains
            ~observer:
              (if trace <> None || csv <> None || summary <> None then
                 Some "--trace"
               else if profile <> None || timeseries <> None then
                 Some "--profile/--timeseries"
               else None)
            ~jobs ~shards ~deterministic
        in
        let report =
          if families then Some `Families else if report then Some `Table
          else None
        in
        Experiments.Scenario.observe ?trace ?csv ?summary ~buffer ?report
          ?metrics_out ?profile ~sample_period ?timeseries ~ts_period
          (fun () -> run_entries ~jobs ?fault entries);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc ~man)
    Term.(
      ret
        (const run $ id $ jobs_arg $ shards_arg $ deterministic_arg
       $ fault_plan_arg $ crash_at_arg $ policy_arg $ metrics_out_arg $ trace
       $ csv $ summary $ buffer $ report $ families $ profile $ sample_period
       $ timeseries $ ts_period))

(* faultcheck's error-injection plan.  The sweep sets seed, crash and node
   for every combo itself, so a plan that sets them would change nothing
   or disarm every crash. *)
let sweep_spec_of plan =
  let d = Fault.Plan.default in
  let owned key =
    Error
      (Printf.sprintf "--fault-plan: faultcheck sets %s itself for every combo"
         key)
  in
  match fault_spec_of plan None with
  | Error msg -> Error msg
  | Ok None -> Ok d
  | Ok (Some s) when s.Fault.Plan.seed <> d.seed -> owned "seed"
  | Ok (Some s) when s.crash_at <> d.crash_at -> owned "crash"
  | Ok (Some s) when s.node <> d.node -> owned "node"
  | Ok (Some s) -> Ok s

let seeds_arg n =
  Arg.(
    value
    & opt int n
    & info [ "seeds" ] ~docv:"N" ~doc:"Sweep workload seeds 1..$(docv).")

(* The driver behind faultcheck and clustercheck: each sweep runs one
   fan-out job per seed and merges them in seed order, so its report is
   byte-identical at any [jobs]; under --broken a clean report means the
   [checker] missed the [bug] planted for it. *)
let run_sweeps ~name ~checker ~bug ~failure ?metrics_out ~jobs ~seeds ~points
    ~broken sweeps =
  if seeds < 1 || points < 1 then
    `Error (true, "--seeds and --points must be >= 1")
  else if jobs < 1 then `Error (true, "--jobs must be >= 1")
  else begin
    let seeds = List.init seeds (fun i -> i + 1) in
    let reports =
      Experiments.Scenario.observe ?metrics_out @@ fun () ->
      List.map
        (fun sweep ->
          let slots = Array.make (List.length seeds) Fault_check.Check.empty in
          Experiments.Fanout.run ~jobs
            (List.mapi
               (fun i seed ->
                 Experiments.Fanout.job
                   ~name:(Printf.sprintf "%s seed %d" name seed)
                   (fun () -> slots.(i) <- sweep ~seeds:[ seed ] ~points ()))
               seeds);
          Array.fold_left Fault_check.Check.merge Fault_check.Check.empty slots)
        sweeps
    in
    List.iter (Fault_check.Check.pp_report name Format.std_formatter) reports;
    let clean = List.for_all Fault_check.Check.ok reports in
    if not broken then if clean then `Ok () else `Error (false, failure)
    else if clean then
      `Error
        ( false,
          Printf.sprintf
            "broken variant produced no violations — the %s missed a real %s"
            checker bug )
    else begin
      Printf.printf "broken variant caught, as expected — %s has teeth\n"
        checker;
      `Ok ()
    end
  end

let faultcheck_cmd =
  let doc = "Crash-consistency sweep: inject power cuts, verify durability." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "For every (seed, crash point) combo, runs a workload under a \
         deterministic fault plan that cuts the power at a chosen engine \
         event, checks the surviving device bytes against a durability \
         oracle (everything acked by a completed msync must be intact and \
         untorn), and restarts a fresh stack over the same device.  Runs \
         both the mmap microbenchmark (NVMe) and the Kreon-sim KV store \
         (DAX pmem) unless $(b,--mode) narrows it.  $(b,--fault-plan) \
         adds error injection; the sweep sets its seed, crash and node \
         keys itself.  Exits non-zero on any violation.";
    ]
  in
  let points =
    Arg.(
      value
      & opt int 20
      & info [ "points" ] ~docv:"N"
          ~doc:"Crash points per seed, spread over the run's event count.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("all", `All); ("micro", `Micro); ("kreon", `Kreon) ]) `All
      & info [ "mode" ] ~docv:"MODE" ~doc:"Which stack to check: $(docv) is \
                                           'micro', 'kreon' or 'all'.")
  in
  let broken =
    Arg.(
      value
      & flag
      & info [ "broken" ]
          ~doc:"Check the deliberately broken variant (write-protect after \
                msync disabled): the sweep is expected to report \
                violations, proving the checker has teeth.  Only the micro \
                stack has one.")
  in
  let run seeds points mode broken plan policy metrics_out =
    match sweep_spec_of plan with
    | Error msg -> `Error (true, msg)
    | Ok _ when broken && mode = `Kreon ->
        `Error (true, "--broken: only the micro stack has a broken variant")
    | Ok spec ->
        let micro = Fault_check.Check.run_micro ~spec ~broken ~policy in
        let kreon = Fault_check.Check.run_kreon ~spec ~policy in
        run_sweeps ~name:"faultcheck" ~checker:"checker" ~bug:"durability bug"
          ~failure:"durability violations found" ?metrics_out ~jobs:1 ~seeds
          ~points ~broken
          (match mode with
          | `Micro -> [ micro ]
          | `Kreon -> [ kreon ]
          | `All -> if broken then [ micro ] else [ micro; kreon ])
  in
  Cmd.v
    (Cmd.info "faultcheck" ~doc ~man)
    Term.(
      ret
        (const run $ seeds_arg 5 $ points $ mode $ broken $ fault_plan_arg
       $ policy_arg $ metrics_out_arg))

let clustercheck_cmd =
  let doc = "Cluster failover sweep: crash nodes, verify no acked write lost." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "For every (seed, crash ordinal, crashed node) combo, drives a \
         seeded workload through the replicated aqcluster while a fault \
         plan downs the target node at an exact engine event, lets \
         failover, recovery and resync drain, then checks that every \
         acknowledged write reads back (as its value or a later one), \
         that reads never return foreign bytes, and that all replicas \
         converge — and repeats the oracle on a fresh cluster restarted \
         from the surviving devices.  Each seed additionally runs a \
         doubled no-crash probe as a byte-level determinism gate.  \
         $(b,--jobs) fans seeds out across domains; the merged report is \
         byte-identical at any parallelism.  Exits non-zero on any \
         violation.";
    ]
  in
  let points =
    Arg.(
      value
      & opt int 4
      & info [ "points" ] ~docv:"N"
          ~doc:"Crash ordinals per seed, spread over the run's event count \
                (each is crossed with every node as the crash target).")
  in
  let nodes =
    Arg.(
      value
      & opt int 3
      & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size in nodes.")
  in
  let replicas =
    Arg.(
      value
      & opt int 2
      & info [ "replicas" ] ~docv:"K"
          ~doc:"Durable copies per key (primary included) before an ack.")
  in
  let broken =
    Arg.(
      value
      & flag
      & info [ "broken" ]
          ~doc:"Check the deliberately broken variant (acknowledge after \
                the primary's durable write, replicate asynchronously): \
                the sweep is expected to report lost acknowledged writes, \
                proving the oracle has teeth.")
  in
  let run seeds points nodes replicas broken jobs =
    if nodes < 2 || replicas < 1 || replicas > nodes then
      `Error (true, "--nodes must be >= 2 and 1 <= --replicas <= --nodes")
    else
      let cfg =
        { Aqcluster.Cluster.default_config with Aqcluster.Cluster.nodes; replicas }
      in
      run_sweeps ~name:"clustercheck" ~checker:"oracle" ~bug:"lost-ack bug"
        ~failure:"cluster violations found" ~jobs ~seeds ~points ~broken
        [ Fault_check.Check.run_cluster ~broken ~cfg ]
  in
  Cmd.v
    (Cmd.info "clustercheck" ~doc ~man)
    Term.(
      ret
        (const run $ seeds_arg 3 $ points $ nodes $ replicas $ broken
       $ jobs_arg))

let loadtest_cmd =
  let doc = "Open-loop load test: seeded arrivals, sojourn SLOs, shedding." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Injects requests from a seeded arrival process (Poisson, bursty \
         MMPP, or a diurnal ramp) at the offered rates in $(b,--rates), \
         independent of how fast each backend absorbs them — the open-loop \
         setup that exposes queueing delay.  Per-request sojourn latency \
         (arrival to completion) is reported as p50/p99/p999 with \
         SLO-violation and load-shedding counts; arrivals beyond the \
         bounded admission queue are shed, as are arrivals while the DRAM \
         cache is in degraded mode.  One fan-out job per (backend, rate) \
         point: output is byte-identical at any $(b,--jobs) degree (CI \
         cmp-gates it; lines starting with '#' are excluded from the \
         comparison).";
    ]
  in
  let backend_conv =
    let parse s =
      match Experiments.Openloop.kind_of_string s with
      | Ok k -> Ok k
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv
      ( parse,
        fun ppf k ->
          Format.pp_print_string ppf (Experiments.Openloop.kind_name k) )
  in
  let backends =
    Arg.(
      value
      & opt (list backend_conv)
          Experiments.Openloop.[ Linux; Aquila; Cluster ]
      & info [ "backends" ] ~docv:"LIST"
          ~doc:"Comma-separated backends to drive: 'linux' (mmap sim), \
                'aquila' (single node) and/or 'cluster' (replicated \
                aqcluster kvstore).")
  in
  let rates =
    Arg.(
      value
      & opt (list float) Experiments.Openloop.default_rates
      & info [ "rates" ] ~docv:"OPS"
          ~doc:"Comma-separated offered loads in ops/s of the simulated \
                2.4 GHz clock; each (backend, rate) pair is one run on a \
                fresh engine.")
  in
  let process =
    Arg.(
      value
      & opt string "poisson"
      & info [ "process" ] ~docv:"P"
          ~doc:"Arrival process: 'poisson', 'mmpp' (bursty on/off) or \
                'diurnal' (raised-cosine ramp).  Mean offered load always \
                equals the swept rate.")
  in
  let dflt = Experiments.Openloop.default_params in
  let horizon =
    Arg.(
      value
      & opt int dflt.Experiments.Openloop.horizon
      & info [ "horizon" ] ~docv:"CYCLES"
          ~doc:"Injection window in virtual cycles.")
  in
  let workers =
    Arg.(
      value
      & opt int dflt.Experiments.Openloop.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Service fibers draining the admission queue per backend.")
  in
  let queue_cap =
    Arg.(
      value
      & opt int dflt.Experiments.Openloop.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Bounded admission-queue capacity; arrivals beyond it are \
                shed (counted, never blocking the injector).")
  in
  let slo =
    Arg.(
      value
      & opt int dflt.Experiments.Openloop.slo_cycles
      & info [ "slo" ] ~docv:"CYCLES"
          ~doc:"Sojourn SLO in cycles; slower completions count as \
                violations (0 disables).")
  in
  let seed =
    Arg.(
      value
      & opt int dflt.Experiments.Openloop.seed
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the arrival stream and request contents.")
  in
  let run backends rates process horizon workers queue_cap slo seed jobs plan
      crash_at policy metrics_out =
    match (Loadgen.Arrival.shape_of_string process, fault_spec_of plan crash_at)
    with
    | Error msg, _ -> `Error (true, "--process: " ^ msg)
    | _, Error msg -> `Error (true, msg)
    | Ok _, _ when jobs < 1 -> `Error (true, "--jobs must be >= 1")
    | Ok _, _ when horizon <= 0 -> `Error (true, "--horizon must be > 0")
    | Ok _, _ when workers < 1 -> `Error (true, "--workers must be >= 1")
    | Ok _, _ when queue_cap < 1 -> `Error (true, "--queue-cap must be >= 1")
    | Ok _, _ when slo < 0 -> `Error (true, "--slo must be >= 0")
    | Ok _, _ when backends = [] -> `Error (true, "--backends must be non-empty")
    | Ok _, _ when rates = [] || List.exists (fun r -> r <= 0.) rates ->
        `Error (true, "--rates must be positive")
    | Ok shape, Ok fault ->
        Experiments.Scenario.set_policy policy;
        (* --jobs is echoed on a '#' line the parity gate filters out *)
        Printf.printf "# loadtest jobs=%d\n%!" jobs;
        let params =
          {
            Experiments.Openloop.shape;
            horizon;
            workers;
            queue_cap;
            slo_cycles = slo;
            seed;
          }
        in
        Experiments.Scenario.observe ?metrics_out (fun () ->
            Experiments.Openloop.loadtest ~jobs ?fault ~backends ~rates params);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "loadtest" ~doc ~man)
    Term.(
      ret
        (const run $ backends $ rates $ process $ horizon $ workers
       $ queue_cap $ slo $ seed $ jobs_arg $ fault_plan_arg $ crash_at_arg
       $ policy_arg $ metrics_out_arg))

let () =
  let doc = "Reproduction harness for 'Memory-Mapped I/O on Steroids' (EuroSys '21)" in
  let info = Cmd.info "aquila_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            loadtest_cmd;
            faultcheck_cmd;
            clustercheck_cmd;
          ]))
