(* Integration tests for the experiment harness (lib/experiments): small
   versions of the paper's scenarios asserting the headline inequalities
   rather than absolute numbers. *)

let checki = Alcotest.(check int)

let registry_complete () =
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    [
      "table1"; "fig5a"; "fig5b"; "fig6a"; "fig6b"; "fig6c"; "fig7"; "fig8a";
      "fig8b"; "fig8c"; "fig9"; "fig10a"; "fig10b"; "ablation-policy";
      "ablation-tlb-batching"; "ablation-memcpy"; "ablation-readahead";
      "ablation-uring"; "sweep-cache-size"; "sweep-evict-batch";
    ];
  checki "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find works" true (Experiments.Registry.find "fig7" <> None);
  Alcotest.(check bool) "find unknown" true (Experiments.Registry.find "fig99" = None)

let microbench_aquila_beats_linux_single_thread () =
  let run aquila =
    let eng = Sim.Engine.create () in
    let sys =
      if aquila then
        Experiments.Microbench.Aq
          (Experiments.Scenario.make_aquila ~frames:512 ~dev:Experiments.Scenario.Pmem ())
      else
        Experiments.Microbench.Lx
          (Experiments.Scenario.make_linux ~readahead:1 ~frames:512
             ~dev:Experiments.Scenario.Pmem ())
    in
    let r =
      Experiments.Microbench.run ~eng ~sys ~file_pages:400 ~shared:true ~threads:1
        ~ops_per_thread:400 ~pattern:Experiments.Microbench.Permutation ()
    in
    r.Experiments.Microbench.throughput_ops_s
  in
  let aq = run true and lx = run false in
  Alcotest.(check bool)
    (Printf.sprintf "aquila faster on the fault path (%.0f vs %.0f)" aq lx)
    true (aq > lx)

let microbench_scales_better_shared () =
  let thr aquila threads =
    let eng = Sim.Engine.create () in
    let sys =
      if aquila then
        Experiments.Microbench.Aq
          (Experiments.Scenario.make_aquila ~frames:4096 ~dev:Experiments.Scenario.Pmem ())
      else
        Experiments.Microbench.Lx
          (Experiments.Scenario.make_linux ~readahead:1 ~frames:4096
             ~dev:Experiments.Scenario.Pmem ())
    in
    (Experiments.Microbench.run ~eng ~sys ~file_pages:3200 ~shared:true ~threads
       ~ops_per_thread:(3200 / threads) ~pattern:Experiments.Microbench.Permutation ())
      .Experiments.Microbench.throughput_ops_s
  in
  let gap1 = thr true 1 /. thr false 1 in
  let gap16 = thr true 16 /. thr false 16 in
  Alcotest.(check bool)
    (Printf.sprintf "gap grows with threads (%.2fx -> %.2fx)" gap1 gap16)
    true
    (gap16 > gap1 *. 1.5)

let microbench_counts_faults () =
  let eng = Sim.Engine.create () in
  let sys =
    Experiments.Microbench.Aq
      (Experiments.Scenario.make_aquila ~frames:512 ~dev:Experiments.Scenario.Pmem ())
  in
  let r =
    Experiments.Microbench.run ~eng ~sys ~file_pages:256 ~shared:true ~threads:2
      ~ops_per_thread:128 ~pattern:Experiments.Microbench.Permutation ()
  in
  checki "permutation touches each page once" 256 r.Experiments.Microbench.ops;
  checki "every access faulted" 256 r.Experiments.Microbench.faults

let fig8c_access_method_ordering () =
  (* Cheap re-check of the Figure 8(c) ordering with a tiny run. *)
  let cost access =
    let eng = Sim.Engine.create () in
    let stack = Experiments.Scenario.make_aquila_access ~frames:256 ~access () in
    let sys = Experiments.Microbench.Aq stack in
    let r =
      Experiments.Microbench.run ~eng ~sys ~file_pages:128 ~shared:true ~threads:1
        ~ops_per_thread:128 ~pattern:Experiments.Microbench.Permutation ()
    in
    Int64.to_float r.Experiments.Microbench.elapsed_cycles
  in
  let dax = cost (fun c _ -> Sdevice.Access.dax_pmem c (Sdevice.Pmem.create ())) in
  let host =
    cost (fun c _ ->
        Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_guest
          (Sdevice.Pmem.create ()))
  in
  Alcotest.(check bool) "DAX beats host path" true (dax < host)

(* ---- Policy ablation determinism across --jobs ---- *)

(* Fanout's parallel path emits the per-job captures with the real
   [print_string], so byte-level comparison needs OS-level stdout
   redirection rather than Sim.Sink.capture. *)
let capture_stdout f =
  let tmp = Filename.temp_file "aq-fanout" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (try f ()
   with e ->
     restore ();
     Sys.remove tmp;
     raise e);
  restore ();
  let ic = open_in_bin tmp in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  s

(* fig6a/b/c force the shared graph from whichever domains --jobs gives
   them; concurrent first forces must neither raise nor build two. *)
let fig6_graph_shared_across_domains () =
  let spawn _ = Domain.spawn Experiments.Fig6.graph in
  match List.map Domain.join (List.init 3 spawn) with
  | g :: rest ->
      List.iter (fun g' -> Alcotest.(check bool) "one graph" true (g == g')) rest
  | [] -> assert false

let policy_ablation_jobs_parity () =
  (* Every policy must produce byte-identical run output whether the two
     ablation workloads run sequentially or on two domains: virtual
     counters (and thus the printed tables) depend only on seeds. *)
  List.iter
    (fun policy ->
      let cell workload () =
        Experiments.Policy_ablation.print_rows
          [
            Experiments.Policy_ablation.run_one ~frames:64 ~threads:2
              ~ops_per_thread:200 ~workload ~policy ();
          ]
      in
      let out jobs =
        capture_stdout (fun () ->
            Experiments.Fanout.run ~jobs
              [
                Experiments.Fanout.job ~name:"pa-zipf"
                  (cell Experiments.Policy_ablation.Zipf_mix);
                Experiments.Fanout.job ~name:"pa-scan"
                  (cell Experiments.Policy_ablation.Scan_mix);
              ])
      in
      let seq = out 1 and par = out 2 in
      Alcotest.(check bool)
        (Mcache.Policy.kind_to_string policy ^ ": output non-empty")
        true
        (String.length seq > 0);
      Alcotest.(check string)
        (Mcache.Policy.kind_to_string policy
        ^ ": --jobs 2 output byte-identical to sequential")
        seq par)
    Mcache.Policy.all_kinds

let scenario_stacks_are_independent () =
  let s1 = Experiments.Scenario.make_aquila ~frames:64 ~dev:Experiments.Scenario.Pmem () in
  let s2 = Experiments.Scenario.make_aquila ~frames:64 ~dev:Experiments.Scenario.Pmem () in
  Alcotest.(check bool) "separate machines" true
    (s1.Experiments.Scenario.a_machine != s2.Experiments.Scenario.a_machine);
  Alcotest.(check bool) "separate stores" true
    (s1.Experiments.Scenario.a_store != s2.Experiments.Scenario.a_store)

let () =
  Alcotest.run "experiments"
    [
      ("registry", [ Alcotest.test_case "complete" `Quick registry_complete ]);
      ( "microbench",
        [
          Alcotest.test_case "aquila beats linux" `Quick
            microbench_aquila_beats_linux_single_thread;
          Alcotest.test_case "scalability gap grows" `Slow
            microbench_scales_better_shared;
          Alcotest.test_case "fault accounting" `Quick microbench_counts_faults;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig8c ordering" `Quick fig8c_access_method_ordering;
          Alcotest.test_case "fig6 graph shared across domains" `Quick
            fig6_graph_shared_across_domains;
        ] );
      ( "scenario",
        [ Alcotest.test_case "independence" `Quick scenario_stacks_are_independent ] );
      ( "policy ablation",
        [
          Alcotest.test_case "--jobs parity per policy" `Quick
            policy_ablation_jobs_parity;
        ] );
    ]
