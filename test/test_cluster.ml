(* Tests for lib/cluster (aqcluster): RPC backoff/timeout, router
   placement purity, replication + failover, and the clustercheck
   sweep's oracle (including its --broken teeth). *)

let checki = Alcotest.(check int)

(* ---- RPC backoff schedule ---- *)

let backoff_schedule () =
  let cfg =
    {
      Aqcluster.Rpc.default_config with
      Aqcluster.Rpc.backoff_base = 100;
      backoff_cap = 800;
    }
  in
  List.iteri
    (fun attempt want ->
      checki
        (Printf.sprintf "backoff attempt %d" attempt)
        want
        (Aqcluster.Rpc.backoff_delay cfg ~attempt))
    [ 100; 200; 400; 800; 800; 800 ];
  (* overflow-safe: a huge attempt still lands on the cap *)
  checki "backoff attempt 62" 800 (Aqcluster.Rpc.backoff_delay cfg ~attempt:62)

(* Exhaustion: calls to a node with no handler time out on the virtual
   clock; after max_attempts the caller gets Unreachable, and the fiber
   spent exactly (attempts * timeout + backoff sleeps) cycles. *)
let retry_exhaustion_raises () =
  let eng = Sim.Engine.create () in
  let cfg =
    {
      Aqcluster.Rpc.wire_latency = 10;
      timeout = 1_000;
      backoff_base = 100;
      backoff_cap = 400;
      max_attempts = 4;
    }
  in
  let rpc : (int, int) Aqcluster.Rpc.t =
    Aqcluster.Rpc.create ~eng ~cfg ~nodes:2 ~alive:(fun _ -> true)
  in
  let raised = ref false in
  let elapsed = ref 0L in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let t0 = Sim.Engine.now_f () in
         (try ignore (Aqcluster.Rpc.call_retry rpc ~src:(-1) ~dst:1 7)
          with Aqcluster.Rpc.Unreachable { node = 1; attempts = 4 } ->
            raised := true);
         elapsed := Int64.sub (Sim.Engine.now_f ()) t0));
  Sim.Engine.run eng;
  Alcotest.(check bool) "Unreachable raised" true !raised;
  (* 4 timeouts of 1000 + backoffs 100, 200, 400 between attempts *)
  checki "virtual cycles spent" (4_000 + 700) (Int64.to_int !elapsed);
  checki "timeouts counted" 4 (Aqcluster.Rpc.timeouts rpc);
  checki "retries counted" 3 (Aqcluster.Rpc.retries rpc)

(* A registered handler replies within the timeout: one attempt, and
   the round trip costs two wire hops. *)
let rpc_roundtrip () =
  let eng = Sim.Engine.create () in
  let cfg =
    { Aqcluster.Rpc.default_config with Aqcluster.Rpc.wire_latency = 50 }
  in
  let rpc : (int, int) Aqcluster.Rpc.t =
    Aqcluster.Rpc.create ~eng ~cfg ~nodes:2 ~alive:(fun _ -> true)
  in
  Aqcluster.Rpc.set_handler rpc 1 (fun x -> x * 2);
  let got = ref 0 and dt = ref 0L in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let t0 = Sim.Engine.now_f () in
         (match Aqcluster.Rpc.call rpc ~src:(-1) ~dst:1 21 with
         | Some r -> got := r
         | None -> Alcotest.fail "rpc timed out");
         dt := Int64.sub (Sim.Engine.now_f ()) t0));
  Sim.Engine.run eng;
  checki "doubled" 42 !got;
  checki "two wire hops" 100 (Int64.to_int !dt);
  checki "no timeouts" 0 (Aqcluster.Rpc.timeouts rpc)

(* ---- router placement: pure in (key, live set) ---- *)

let router_nodes = 7

let placement_pure =
  QCheck.Test.make ~name:"router placement is pure in (key, live set)"
    ~count:200
    QCheck.(
      triple (string_of_size (QCheck.Gen.int_range 0 24))
        (list_of_size (QCheck.Gen.return router_nodes) bool)
        (int_range 1 5))
    (fun (key, live_l, k) ->
      let live = Array.of_list live_l in
      let router = Aqcluster.Router.create ~nodes:router_nodes () in
      let p1 = Aqcluster.Router.place router ~live ~key ~k in
      let p2 = Aqcluster.Router.place router ~live ~key ~k in
      let alive = Array.fold_left (fun a l -> if l then a + 1 else a) 0 live in
      p1 = p2
      && List.length p1 = min k alive
      && List.for_all (fun n -> live.(n)) p1
      && List.length (List.sort_uniq compare p1) = List.length p1)

(* Killing a node never reshuffles the survivors: the dead node's slots
   fall to the next ring member, everyone else keeps their role order. *)
let placement_stable_under_failure () =
  let router = Aqcluster.Router.create ~nodes:5 () in
  let all = Array.make 5 true in
  for i = 0 to 199 do
    let key = Printf.sprintf "key%04d" i in
    let before = Aqcluster.Router.place router ~live:all ~key ~k:3 in
    let dead = List.hd before in
    let live = Array.copy all in
    live.(dead) <- false;
    let after = Aqcluster.Router.place router ~live ~key ~k:3 in
    let survivors = List.filter (fun n -> n <> dead) before in
    let prefix_len = List.length survivors in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    Alcotest.(check (list int))
      (Printf.sprintf "survivors keep order for %s" key)
      survivors (take prefix_len after)
  done

(* ---- cluster data path ---- *)

let small_cfg ?(nodes = 3) ?(replicas = 2) ?(broken = false) () =
  {
    Aqcluster.Cluster.default_config with
    Aqcluster.Cluster.nodes;
    replicas;
    broken;
    node = { Aqcluster.Node.cache_frames = 32; wal_pages = 512 };
    recovery_delay = 1_000_000;
  }

let cluster_roundtrip () =
  let eng = Sim.Engine.create () in
  let cfg = small_cfg () in
  let cl = Aqcluster.Cluster.create ~cfg ~eng () in
  Aqcluster.Cluster.boot cl;
  let kv = Aqcluster.Cluster.kv cl in
  ignore
    (Sim.Engine.spawn eng ~core:3 (fun () ->
         for i = 0 to 19 do
           kv.Ycsb.Runner.kv_insert
             (Printf.sprintf "user%02d" i)
             (Printf.sprintf "value-%d" i)
         done;
         kv.Ycsb.Runner.kv_update "user03" "updated";
         Alcotest.(check (option string))
           "read back" (Some "updated")
           (kv.Ycsb.Runner.kv_read "user03");
         Alcotest.(check (option string))
           "absent key" None
           (kv.Ycsb.Runner.kv_read "nope");
         kv.Ycsb.Runner.kv_rmw "user05" (fun v -> v ^ "!");
         Alcotest.(check (option string))
           "rmw applied" (Some "value-5!")
           (kv.Ycsb.Runner.kv_read "user05");
         let scanned = kv.Ycsb.Runner.kv_scan ~start:"user10" ~n:4 in
         Alcotest.(check (list string))
           "scan keys"
           [ "user10"; "user11"; "user12"; "user13" ]
           (List.map fst scanned)));
  Sim.Engine.run eng;
  let st = Aqcluster.Cluster.stats cl in
  checki "acked writes" 22 st.Aqcluster.Cluster.acked_writes;
  checki "no failovers" 0 st.Aqcluster.Cluster.failovers;
  Alcotest.(check (list string))
    "replicas converged" []
    (Aqcluster.Cluster.convergence_violations cl)

(* Every write lands on [replicas] distinct nodes before the ack. *)
let writes_replicated_k_times () =
  let eng = Sim.Engine.create () in
  let cfg = small_cfg ~nodes:4 ~replicas:3 () in
  let cl = Aqcluster.Cluster.create ~cfg ~eng () in
  Aqcluster.Cluster.boot cl;
  let kv = Aqcluster.Cluster.kv cl in
  ignore
    (Sim.Engine.spawn eng ~core:4 (fun () ->
         for i = 0 to 11 do
           kv.Ycsb.Runner.kv_insert (Printf.sprintf "k%02d" i) "v"
         done));
  Sim.Engine.run eng;
  for i = 0 to 11 do
    let key = Printf.sprintf "k%02d" i in
    let copies = ref 0 in
    for n = 0 to 3 do
      match Aqcluster.Node.peek (Aqcluster.Cluster.node cl n) key with
      | Some { Aqcluster.Node.value = Some _; _ } -> incr copies
      | _ -> ()
    done;
    checki (Printf.sprintf "%s has 3 durable copies" key) 3 !copies
  done

(* Crash the primary mid-run: the router promotes the next replica,
   writes keep acking, the node recovers and resyncs, and no
   acknowledged write is lost. *)
let failover_keeps_acked_writes () =
  let eng = Sim.Engine.create () in
  let cfg = small_cfg () in
  let cl = Aqcluster.Cluster.create ~cfg ~eng () in
  Aqcluster.Cluster.boot cl;
  let kv = Aqcluster.Cluster.kv cl in
  let acked : (string * string) list ref = ref [] in
  ignore
    (Sim.Engine.spawn eng ~core:3 (fun () ->
         for i = 0 to 39 do
           let k = Printf.sprintf "user%02d" i in
           let v = Printf.sprintf "value-%d" i in
           match kv.Ycsb.Runner.kv_update k v with
           | () -> acked := (k, v) :: !acked
           | exception Aqcluster.Rpc.Unreachable _ -> ()
         done));
  (* down node 1 while the writes are in flight *)
  Sim.Engine.post eng ~at:40_000_000L (fun () ->
      Aqcluster.Cluster.crash_node cl 1 ~ordinal:0);
  Sim.Engine.run eng;
  (* writers stopped: one final anti-entropy pass, then verify *)
  ignore
    (Sim.Engine.spawn eng ~core:3 (fun () ->
         ignore (Aqcluster.Cluster.resync cl)));
  Sim.Engine.run eng;
  let st = Aqcluster.Cluster.stats cl in
  checki "one failover" 1 st.Aqcluster.Cluster.failovers;
  Alcotest.(check bool) "some writes acked" true (List.length !acked > 30);
  ignore
    (Sim.Engine.spawn eng ~core:3 (fun () ->
         List.iter
           (fun (k, v) ->
             Alcotest.(check (option string))
               (Printf.sprintf "acked %s survives failover" k)
               (Some v)
               (kv.Ycsb.Runner.kv_read k))
           !acked));
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "replicas converged after resync" []
    (Aqcluster.Cluster.convergence_violations cl);
  Alcotest.(check bool)
    "recovered node is live again" true
    (Aqcluster.Cluster.live_view cl).(1)

(* ---- clustercheck sweep ---- *)

let sweep_cfg = small_cfg ()

let sweep_clean () =
  let r =
    Fault_check.Check.run_cluster ~cfg:sweep_cfg ~seeds:[ 11 ] ~points:2 ()
  in
  checki "combos" (2 * 3) r.Fault_check.Check.combos;
  checki "every combo crashed its node" r.Fault_check.Check.combos
    r.Fault_check.Check.crashes;
  Alcotest.(check (list string)) "no violations" [] r.Fault_check.Check.violations

let sweep_broken_caught () =
  let r =
    Fault_check.Check.run_cluster ~broken:true ~cfg:sweep_cfg ~seeds:[ 11 ] ~points:2 ()
  in
  Alcotest.(check bool)
    "ack-before-replication is caught" false
    (Fault_check.Check.ok r)

(* ---- Engine.blocked_report node tag (satellite) ---- *)

let blocked_report_node_tag () =
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"srv" ~core:2 (fun () ->
         Sim.Engine.set_node_id (Sim.Engine.self ()) 7;
         Sim.Engine.suspend (fun _resume -> ())));
  Sim.Engine.run eng;
  let report = Sim.Engine.blocked_report eng in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "report names the cluster node" true
    (contains ~sub:" node 7" report);
  Alcotest.(check bool)
    "fiber without a node id is untagged" true
    (not (contains ~sub:" node -1" report))

let () =
  Alcotest.run "cluster"
    [
      ( "rpc",
        [
          Alcotest.test_case "backoff schedule" `Quick backoff_schedule;
          Alcotest.test_case "retry exhaustion raises" `Quick
            retry_exhaustion_raises;
          Alcotest.test_case "roundtrip" `Quick rpc_roundtrip;
        ] );
      ( "router",
        [
          QCheck_alcotest.to_alcotest placement_pure;
          Alcotest.test_case "placement stable under failure" `Quick
            placement_stable_under_failure;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "kv roundtrip" `Quick cluster_roundtrip;
          Alcotest.test_case "writes replicated K times" `Quick
            writes_replicated_k_times;
          Alcotest.test_case "failover keeps acked writes" `Quick
            failover_keeps_acked_writes;
        ] );
      ( "check",
        [
          Alcotest.test_case "sweep clean" `Slow sweep_clean;
          Alcotest.test_case "broken variant caught" `Slow sweep_broken_caught;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "blocked_report node tag" `Quick
            blocked_report_node_tag;
        ] );
    ]
