(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation benches from DESIGN.md §5, and times the
   core substrate data structures with Bechamel.

   --jobs N (or BENCH_JOBS=N) fans the experiments, ablations and sweeps
   out over N OCaml domains; per-job seeds and domain-local ambient state
   keep every result — and the output bytes — identical to a sequential
   run.  The Bechamel wall-clock microbenchmarks stay sequential so their
   timings are not perturbed by sibling domains.  The 's'-suffixed
   shard-partitioned experiments run as a one-shard cluster here;
   [aquila_cli run --shards N] sizes their cluster.

   Every flag is "--flag V" or "--flag=V".  A malformed value exits 2
   with a message naming the flag and the value. *)

(* A malformed knob exits 2; it never runs with a default in its place. *)
let die what msg =
  Printf.eprintf "bench: %s: %s\n%!" what msg;
  exit 2

(* The last "FLAG V" or "FLAG=V" among the spellings [names], with the
   spelling that matched. *)
let flag_value names =
  let argv = Sys.argv in
  let n = Array.length argv in
  let found = ref None in
  for i = 1 to n - 1 do
    let s = argv.(i) in
    List.iter
      (fun flag ->
        let pre = flag ^ "=" in
        if s = flag then
          if i + 1 < n then found := Some (flag, argv.(i + 1))
          else die flag "missing value"
        else if String.starts_with ~prefix:pre s then
          let pl = String.length pre in
          found := Some (flag, String.sub s pl (String.length s - pl)))
      names
  done;
  !found

let int_at_least lo what s =
  match int_of_string_opt s with
  | Some n when n >= lo -> n
  | _ -> die what (Printf.sprintf "expected an integer >= %d, got %S" lo s)

(* --jobs N, -j N (or BENCH_JOBS=N; the flag wins) *)
let jobs_of_argv () =
  let env =
    Option.map (int_at_least 1 "BENCH_JOBS") (Sys.getenv_opt "BENCH_JOBS")
  in
  match flag_value [ "--jobs"; "-j" ] with
  | Some (flag, s) -> int_at_least 1 flag s
  | None -> Option.value env ~default:1

(* Same flag names and spec syntax as bin/aquila_cli.exe: --fault-plan
   SPEC injects seeded device faults into every experiment, ablation and
   sweep job; --crash-at N is shorthand for adding 'crash=N' to the
   plan.  Each job builds its own plan from the spec, so injection
   composes with --jobs and the output stays byte-identical at any
   fan-out degree. *)
let fault_of_argv () =
  let plan = Option.map snd (flag_value [ "--fault-plan" ]) in
  let crash_at =
    Option.map
      (fun (flag, s) -> int_at_least 0 flag s)
      (flag_value [ "--crash-at" ])
  in
  let base =
    match plan with
    | None -> Fault.Plan.default
    | Some s -> (
        match Fault.Plan.parse s with
        | Ok spec -> spec
        | Error msg -> die "--fault-plan" msg)
  in
  match crash_at with
  | Some at -> Some { base with Fault.Plan.crash_at = Some at }
  | None -> if plan = None then None else Some base

(* --policy NAME sets the ambient cache-replacement policy every Aquila
   stack picks up (ablations that pin their own policy still win). *)
let policy_of_argv () =
  Option.map
    (fun (flag, s) ->
      match Mcache.Policy.kind_of_string s with
      | Ok k -> k
      | Error msg -> die flag msg)
    (flag_value [ "--policy" ])

(* --metrics-out FILE writes the merged aqmetrics snapshot of the whole
   harness run (same format rules as aquila_cli: .prom/.txt is
   Prometheus exposition, anything else flat JSON). *)
let metrics_out_of_argv () = Option.map snd (flag_value [ "--metrics-out" ])

let () =
  let jobs = jobs_of_argv () in
  let fault = fault_of_argv () in
  let metrics_out = metrics_out_of_argv () in
  (match policy_of_argv () with
  | Some k -> Experiments.Scenario.set_policy k
  | None -> ());
  Printf.printf "=== Aquila (EuroSys '21) reproduction benchmark harness ===\n";
  Printf.printf "%s\n" Experiments.Scenario.scale_note;
  if jobs > 1 then Printf.printf "(fan-out: up to %d parallel domains)\n" jobs;
  (match Experiments.Scenario.policy () with
  | Mcache.Policy.Clock -> ()
  | k ->
      Printf.printf "(cache replacement policy: %s)\n"
        (Mcache.Policy.kind_to_string k));
  (match fault with
  | Some spec ->
      Printf.printf "(fault injection: %s)\n" (Fault.Plan.to_string spec)
  | None -> ());
  Experiments.Scenario.with_metrics ?out:metrics_out (fun () ->
      Experiments.Registry.run_all ~jobs ?fault ();
      Printf.printf "\n### Ablations (DESIGN.md section 5)\n%!";
      Experiments.Fanout.run ~jobs ?fault Ablations.jobs;
      Printf.printf "\n### Sensitivity sweeps (beyond the paper's fixed points)\n%!";
      Experiments.Fanout.run ~jobs ?fault Sweeps.jobs);
  Printf.printf "\n### Substrate microbenchmarks (Bechamel, wall-clock of the simulator's own data structures)\n%!";
  Micro_bechamel.run ()
