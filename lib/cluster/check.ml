(* clustercheck: the no-lost-acknowledged-writes sweep (DESIGN.md §11).

   Mirrors lib/fault/check.ml: for each seed, probe the full run twice
   (determinism check over event count, acked ops and device bytes),
   then sweep crash ordinals spread over the observed event count — but
   crossed with *which node* dies, since a primary crash and a
   mid-chain replica crash exercise different failover paths.

   Each combo runs a seeded mixed workload through Cluster.kv while the
   armed plan downs the target node at the exact ordinal, lets failover
   and recovery drain, then checks three oracles:

   1. no lost acks — every write the client saw acknowledged must read
      back as that value or a later one (never older, never absent);
   2. no foreign bytes — reads only ever return values the client wrote;
   3. convergence — after resync every placement member of every key
      holds identical state.

   Finally the whole cluster is restarted over the surviving devices
   (fresh engine, WAL replay only) and oracles 1 and 3 re-checked: what
   the cluster serves must be reconstructible from durable state alone. *)

type report = {
  combos : int;  (** (seed x ordinal x node) runs, probes excluded *)
  crashes : int;  (** combos whose run actually downed the node *)
  violations : string list;
}

let ok r = r.violations = []

let empty = { combos = 0; crashes = 0; violations = [] }

let merge a b =
  {
    combos = a.combos + b.combos;
    crashes = a.crashes + b.crashes;
    violations = a.violations @ b.violations;
  }

let pp_report ppf r =
  Format.fprintf ppf "clustercheck: %d combos, %d crashed, %d violations@." r.combos
    r.crashes (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "  VIOLATION %s@." v) r.violations

(* ---- workload ---- *)

let check_ops = 150
let check_keyspace = 32

let kv_key rng = Printf.sprintf "key%03d" (Sim.Rng.int rng check_keyspace)
let kv_value ~seed ~op key = Printf.sprintf "v%05d.%d.%s" op seed key

type run_result = {
  crashed : bool;
  events : int;
  acked : int;
  digest : string;
  run_violations : string list;
}

(* Read every history key back through the cluster API and compare with
   the client-side oracle tables. *)
let oracle_readback ~eng ~kv ~history ~acked ~violation ~tag =
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) history []
    |> List.sort String.compare
  in
  ignore
    (Sim.Engine.spawn eng ~name:(tag ^ "-oracle") (fun () ->
         List.iter
           (fun key ->
             let hist = Hashtbl.find history key in
             let got = try kv.Ycsb.Runner.kv_read key with Rpc.Unreachable _ -> None in
             match (got, Hashtbl.find_opt acked key) with
             | None, Some aop ->
                 violation
                   (Printf.sprintf "%s: key %s lost: acked at op %d" tag key aop)
             | None, None -> ()
             | Some v, ack -> (
                 match List.find_opt (fun (_, v') -> String.equal v v') hist with
                 | None ->
                     violation
                       (Printf.sprintf "%s: key %s returned foreign bytes %S"
                          tag key v)
                 | Some (vop, _) -> (
                     match ack with
                     | Some aop when vop < aop ->
                         violation
                           (Printf.sprintf
                              "%s: key %s stale: returned op %d but op %d was \
                               acked"
                              tag key vop aop)
                     | _ -> ())))
           keys));
  Sim.Engine.run eng

let cluster_once ~seed ~(spec : Fault.Plan.spec) ~(cfg : Cluster.config) () =
  let plan = Fault.Plan.make { spec with Fault.Plan.seed } in
  (* oracle tables: every value ever written per key (newest first), and
     the op of the last *acknowledged* write per key *)
  let history : (string, (int * string) list) Hashtbl.t = Hashtbl.create 64 in
  let acked : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let events = ref 0 in
  let eng = Sim.Engine.create () in
  let cl = Cluster.create ~cfg ~eng () in
  Fault.with_plan plan (fun () ->
      Cluster.boot cl;
      Cluster.arm_fault cl plan;
      let kv = Cluster.kv cl in
      ignore
        (Sim.Engine.spawn eng ~name:"client" ~core:cfg.Cluster.nodes (fun () ->
             let rng = Sim.Rng.create (0xc105ed + seed) in
             for i = 1 to check_ops do
               let key = kv_key rng in
               if i mod 5 = 0 then begin
                 (* read: may see anything from this run, never foreign *)
                 match try kv.Ycsb.Runner.kv_read key with Rpc.Unreachable _ -> None with
                 | None -> ()
                 | Some v ->
                     let hist =
                       try Hashtbl.find history key with Not_found -> []
                     in
                     if not (List.exists (fun (_, v') -> String.equal v v') hist)
                     then violation "run: key %s read foreign bytes %S" key v
               end
               else begin
                 let v = kv_value ~seed ~op:i key in
                 Hashtbl.replace history key
                   ((i, v) :: (try Hashtbl.find history key with Not_found -> []));
                 match kv.Ycsb.Runner.kv_update key v with
                 | () -> Hashtbl.replace acked key i
                 | exception Rpc.Unreachable _ -> ()
               end
             done));
      Sim.Engine.run eng;
      (* final anti-entropy pass now that writers stopped, then oracles *)
      ignore
        (Sim.Engine.spawn eng ~name:"final-resync" ~core:cfg.Cluster.nodes
           (fun () -> ignore (Cluster.resync cl)));
      Sim.Engine.run eng;
      oracle_readback ~eng ~kv ~history ~acked
        ~violation:(fun s -> violations := s :: !violations)
        ~tag:"run";
      List.iter (fun v -> violation "run: %s" v) (Cluster.convergence_violations cl);
      events := Sim.Engine.events eng);
  (* restart verification: a fresh cluster over the surviving devices
     must serve the same durable truth (no plan installed) *)
  let eng2 = Sim.Engine.create () in
  let cl2 = Cluster.create ~cfg ~devices:(Cluster.devices cl) ~eng:eng2 () in
  (try
     Cluster.boot cl2;
     oracle_readback ~eng:eng2 ~kv:(Cluster.kv cl2) ~history ~acked
       ~violation:(fun s -> violations := s :: !violations)
       ~tag:"restart";
     List.iter
       (fun v -> violation "restart: %s" v)
       (Cluster.convergence_violations cl2)
   with e ->
     violation "restart verification failed: %s" (Printexc.to_string e));
  {
    crashed = Fault.Plan.crashed plan;
    events = !events;
    acked = (Cluster.stats cl).Cluster.acked_writes;
    digest = (Cluster.device_digest cl :> string);
    run_violations = List.rev !violations;
  }

(* ---- sweep driver ---- *)

let label ~seed ~crash_at ~node msg =
  Printf.sprintf "[cluster seed=%d%s%s] %s" seed
    (match crash_at with None -> "" | Some at -> Printf.sprintf " crash=%d" at)
    (match node with None -> "" | Some i -> Printf.sprintf " node=%d" i)
    msg

let sweep ?(broken = false) ?(cfg = Cluster.default_config) ~seeds ~points () =
  let cfg = { cfg with Cluster.broken } in
  let combos = ref 0 and crashes = ref 0 in
  let violations = ref [] in
  let add ~seed ~crash_at ~node msgs =
    violations :=
      List.rev_append
        (List.rev_map (label ~seed ~crash_at ~node) msgs)
        !violations
  in
  List.iter
    (fun seed ->
      let spec = { Fault.Plan.default with Fault.Plan.seed } in
      let probe = cluster_once ~seed ~spec ~cfg () in
      add ~seed ~crash_at:None ~node:None probe.run_violations;
      let probe2 = cluster_once ~seed ~spec ~cfg () in
      if
        probe.events <> probe2.events
        || probe.acked <> probe2.acked
        || not (String.equal probe.digest probe2.digest)
      then
        add ~seed ~crash_at:None ~node:None
          [
            Printf.sprintf
              "nondeterministic: events %d/%d, acked %d/%d, device bytes %s"
              probe.events probe2.events probe.acked probe2.acked
              (if String.equal probe.digest probe2.digest then "equal"
               else "differ");
          ];
      for i = 1 to points do
        let at = max 1 (probe.events * i / (points + 1)) in
        for target = 0 to cfg.Cluster.nodes - 1 do
          let spec =
            {
              spec with
              Fault.Plan.crash_at = Some at;
              Fault.Plan.node = Some target;
            }
          in
          let r = cluster_once ~seed ~spec ~cfg () in
          incr combos;
          if r.crashed then incr crashes;
          add ~seed ~crash_at:(Some at) ~node:(Some target) r.run_violations
        done
      done)
    seeds;
  { combos = !combos; crashes = !crashes; violations = List.rev !violations }
