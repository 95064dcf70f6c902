(* Crash-consistency checker (DESIGN.md §7, §11): one sweep, three
   backends.

   A backend runs one workload under a fault plan that cuts the power
   (or downs one cluster node) at a chosen engine event, checks what
   survived against a host-side durability oracle, and restarts a fresh
   stack over the same devices to prove the data is reachable again:

   - micro: full-page versioned writes through an Aquila mmap over an
     NVMe block device.  Every page on the device must decode to a
     version v with synced(p) <= v <= latest(p), carry its own page
     number, and have an internally consistent fill pattern (no tear
     inside an acknowledged page).
   - kreon: a Kreon-sim instance over DAX pmem.  After crash + recover,
     every key acked by a completed msync must return its acked value or
     a later one; no key may return bytes that were never written.
   - cluster: a seeded mixed workload through the replicated aqcluster
     while the plan downs the target node.  After failover, recovery and
     resync — and again on a fresh cluster restarted from the surviving
     devices — no acked write may be lost or stale, no read may return
     foreign bytes, and every replica must converge.

   Kreon and the cluster share one key-value history oracle; [sweep]
   owns the plan's seed, crash ordinal and crash target for all three.
   Everything is deterministic: the workload draws from its own seeded
   RNG, injection draws from the plan's stream, and crash points are
   event ordinals — so a combo is exactly repeatable. *)

module Cluster = Aqcluster.Cluster
module Rpc = Aqcluster.Rpc

let psz = Hw.Defs.page_size

type report = {
  combos : int;  (** (seed x crash point x target) runs, probes excluded *)
  crashes : int;  (** combos whose run actually hit the injected crash *)
  violations : string list;  (** oracle failures, labelled *)
}

let empty = { combos = 0; crashes = 0; violations = [] }
let ok r = r.violations = []

let merge a b =
  {
    combos = a.combos + b.combos;
    crashes = a.crashes + b.crashes;
    violations = a.violations @ b.violations;
  }

let pp_report name ppf r =
  Format.fprintf ppf "%s: %d combos, %d crashed, %d violations@." name
    r.combos r.crashes (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "  VIOLATION %s@." v) r.violations

(* ---- the sweep ---- *)

type run = {
  crashed : bool;
  events : int;
  fingerprint : string;
  run_violations : string list;
}

let label mode (spec : Fault.Plan.spec) msg =
  let opt key = function None -> "" | Some n -> Printf.sprintf " %s=%d" key n in
  Printf.sprintf "[%s seed=%d%s%s] %s" mode spec.seed
    (opt "crash" spec.crash_at) (opt "node" spec.node) msg

(* Probe the full run twice (determinism check), then sweep [points]
   crash ordinals spread over the observed event count, each crossed
   with every target. *)
let sweep ~mode ?(targets = [ None ]) ?(spec = Fault.Plan.default) ~seeds
    ~points once =
  let combos = ref 0 and crashes = ref 0 in
  let violations = ref [] in
  let add spec msgs =
    violations := List.rev_append (List.rev_map (label mode spec) msgs) !violations
  in
  List.iter
    (fun seed ->
      let spec = { spec with Fault.Plan.seed; crash_at = None; node = None } in
      let probe = once spec in
      add spec probe.run_violations;
      let probe2 = once spec in
      let same = String.equal probe.fingerprint probe2.fingerprint in
      if probe.events <> probe2.events || not same then
        add spec
          [
            Printf.sprintf "nondeterministic: events %d/%d, fingerprint %s"
              probe.events probe2.events (if same then "equal" else "differs");
          ];
      for i = 1 to points do
        let crash_at = Some (max 1 (probe.events * i / (points + 1))) in
        List.iter
          (fun node ->
            let spec = { spec with Fault.Plan.crash_at; node } in
            let r = once spec in
            incr combos;
            if r.crashed then incr crashes;
            add spec r.run_violations)
          targets
      done)
    seeds;
  { combos = !combos; crashes = !crashes; violations = List.rev !violations }

(* The plan's injection counters and a device digest: what two runs of
   the same spec must agree on. *)
let fingerprint plan digest =
  String.concat ""
    (List.map
       (fun (k, n) -> Printf.sprintf "%s=%d " k n)
       (Fault.Plan.counters plan))
  ^ digest

(* Run [f] under [plan]: the engine event count it returns, or the
   ordinal of the power cut that ended it. *)
let events_under plan f =
  try Fault.with_plan plan f with Fault.Crash { at_event } -> at_event

let stack_config ?(wb_protect = true) ~policy cache_frames =
  let cfg = Aquila.Context.default_config ~cache_frames in
  {
    cfg with
    Aquila.Context.cache =
      { cfg.Aquila.Context.cache with Mcache.Dram_cache.policy; wb_protect };
  }

(* ---- micro: versioned full-page writes over NVMe ---- *)

let micro_pages = 96
let micro_frames = 48
let micro_ops = 400
let micro_sync_every = 24

(* Page image: bytes 0-7 version (LE), 8-15 page number (LE), the rest a
   fill byte derived from (seed, page, version) — any torn or misdirected
   page decodes as corrupt. *)
let fill_byte ~seed ~page ~version = (seed + (page * 31) + (version * 7)) land 0xff

let encode_page ~seed ~page ~version =
  let b = Bytes.make psz (Char.chr (fill_byte ~seed ~page ~version)) in
  Bytes.set_int64_le b 0 (Int64.of_int version);
  Bytes.set_int64_le b 8 (Int64.of_int page);
  b

type decoded = Zero | Version of int | Corrupt of string

let decode_page ~seed ~page buf =
  let v = Int64.to_int (Bytes.get_int64_le buf 0) in
  if v = 0 then
    if Bytes.for_all (fun c -> c = '\000') buf then Zero
    else Corrupt "version 0 but page not blank"
  else
    let p = Int64.to_int (Bytes.get_int64_le buf 8) in
    if p <> page then Corrupt (Printf.sprintf "holds page %d's image" p)
    else begin
      let fb = Char.chr (fill_byte ~seed ~page ~version:v) in
      let rec consistent i =
        i >= psz || (Bytes.get buf i = fb && consistent (i + 1))
      in
      if consistent 16 then Version v
      else Corrupt (Printf.sprintf "torn fill at version %d" v)
    end

let micro_store_digest store =
  let buf = Bytes.create psz in
  let all = Buffer.create (micro_pages * psz) in
  for p = 0 to micro_pages - 1 do
    Sdevice.Pagestore.read_page store ~page:p ~dst:buf;
    Buffer.add_bytes all buf
  done;
  Digest.string (Buffer.contents all)

(* One run: workload under the plan (possibly crashing), oracle check on
   the raw device, then a restart read-back through a fresh stack. *)
let micro_once ~broken ~policy (spec : Fault.Plan.spec) =
  let seed = spec.seed in
  let nvme = Sdevice.Nvme.create ~name:"check-nvme" () in
  let store = Sdevice.Block_dev.store nvme in
  let latest = Array.make micro_pages 0 in
  let synced = Array.make micro_pages 0 in
  let plan = Fault.Plan.make spec in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let translate p = if p < micro_pages then Some p else None in
  let events =
    events_under plan (fun () ->
        let eng = Sim.Engine.create () in
        let ctx =
          Aquila.Context.create
            (stack_config ~wb_protect:(not broken) ~policy micro_frames)
        in
        let access = Sdevice.Access.spdk_nvme (Aquila.Context.costs ctx) nvme in
        ignore
          (Sim.Engine.spawn eng ~core:0 (fun () ->
               Aquila.Context.enter_thread ctx;
               let file =
                 Aquila.Context.attach_file ctx ~name:"check.dat" ~access
                   ~translate ~size_pages:micro_pages
               in
               let region = Aquila.Context.mmap ctx file ~npages:micro_pages () in
               let rng = Sim.Rng.create (0x51ed2706 + seed) in
               let sync () =
                 (* only a completed msync acknowledges durability *)
                 try
                   Aquila.Context.msync ctx region;
                   Array.blit latest 0 synced 0 micro_pages
                 with Fault.Io_error _ -> ()
               in
               try
                 for i = 1 to micro_ops do
                   let p = Sim.Rng.int rng micro_pages in
                   let v = latest.(p) + 1 in
                   latest.(p) <- v;
                   (try
                      Aquila.Context.write ctx region ~off:(p * psz)
                        ~src:(encode_page ~seed ~page:p ~version:v)
                    with
                   | Fault.Sigbus _ ->
                       (* the store never happened: roll the oracle back *)
                       latest.(p) <- v - 1
                   | Fault.Read_only _ ->
                       latest.(p) <- v - 1;
                       raise Exit);
                   if i mod micro_sync_every = 0 then sync ()
                 done;
                 sync ()
               with Exit -> ()));
        Sim.Engine.run eng;
        Sim.Engine.events eng)
  in
  (* Oracle: inspect the device bytes that survived the cut. *)
  let buf = Bytes.create psz in
  for p = 0 to micro_pages - 1 do
    Sdevice.Pagestore.read_page store ~page:p ~dst:buf;
    match decode_page ~seed ~page:p buf with
    | Zero ->
        if synced.(p) > 0 then
          violation "page %d lost: blank on device but version %d was acked" p
            synced.(p)
    | Version v ->
        if v < synced.(p) then
          violation "page %d stale: device holds v%d but v%d was acked" p v
            synced.(p);
        if v > latest.(p) then
          violation "page %d from the future: device v%d, last written v%d" p v
            latest.(p)
    | Corrupt msg -> violation "page %d corrupt: %s" p msg
  done;
  (* Restart: a fresh stack over the surviving device (no plan installed)
     must serve exactly the durable bytes through the mmap path. *)
  let eng = Sim.Engine.create () in
  let ctx = Aquila.Context.create (stack_config ~policy micro_frames) in
  let access = Sdevice.Access.spdk_nvme (Aquila.Context.costs ctx) nvme in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Aquila.Context.enter_thread ctx;
         let file =
           Aquila.Context.attach_file ctx ~name:"check.dat" ~access ~translate
             ~size_pages:micro_pages
         in
         let region = Aquila.Context.mmap ctx file ~npages:micro_pages () in
         let got = Bytes.create psz in
         let want = Bytes.create psz in
         for p = 0 to micro_pages - 1 do
           Aquila.Context.read ctx region ~off:(p * psz) ~len:psz ~dst:got;
           Sdevice.Pagestore.read_page store ~page:p ~dst:want;
           if not (Bytes.equal got want) then
             violation "restart: mmap read of page %d differs from device" p
         done));
  (try Sim.Engine.run eng
   with e -> violation "restart verification failed: %s" (Printexc.to_string e));
  {
    crashed = Fault.Plan.crashed plan;
    events;
    fingerprint = fingerprint plan (micro_store_digest store);
    run_violations = List.rev !violations;
  }

(* ---- the key-value history oracle (kreon, cluster) ---- *)

(* Every value written per key, newest first, recorded before the write
   is issued: a crash inside it may still land the value.  And the op of
   the last acknowledged write per key, recorded once it returned. *)
type history = {
  writes : (string, (int * string) list) Hashtbl.t;
  acks : (string, int) Hashtbl.t;
}

let history () = { writes = Hashtbl.create 64; acks = Hashtbl.create 64 }

let record_write h key op v =
  Hashtbl.replace h.writes key
    ((op, v) :: Option.value (Hashtbl.find_opt h.writes key) ~default:[])

let record_ack h key op = Hashtbl.replace h.acks key op

(* The op that last wrote [v] to [key], if this run ever did. *)
let written h key v =
  Option.bind (Hashtbl.find_opt h.writes key) (fun ws ->
      Option.map fst (List.find_opt (fun (_, v') -> String.equal v v') ws))

(* A read of [key] that returned [got]: an acked key must hold its acked
   value or a later one; any key may hold only bytes this run wrote. *)
let check_read h key got =
  match (got, Hashtbl.find_opt h.acks key) with
  | None, None -> None
  | None, Some aop -> Some (Printf.sprintf "key %s lost: acked at op %d" key aop)
  | Some v, ack -> (
      match (written h key v, ack) with
      | None, _ -> Some (Printf.sprintf "key %s returned foreign bytes %S" key v)
      | Some vop, Some aop when vop < aop ->
          Some
            (Printf.sprintf "key %s stale: returned op %d but op %d was acked"
               key vop aop)
      | Some _, _ -> None)

let kv_key ~keyspace rng = Printf.sprintf "key%03d" (Sim.Rng.int rng keyspace)

(* The value embeds its op, so each one maps back to the write that
   made it. *)
let kv_value ~digits ~seed ~op key = Printf.sprintf "v%0*d.%d.%s" digits op seed key

(* ---- kreon: KV store commit protocol over DAX pmem ---- *)

let kreon_ops = 240
let kreon_sync_every = 30
let kreon_keyspace = 60
let kreon_capacity_pages = 16384

let kreon_config =
  (* small L0 so the run spills through the levels a few times *)
  { Kvstore.Kreon_sim.l0_limit_entries = 48; level_ratio = 4; nlevels = 3 }

let kreon_once ~policy (spec : Fault.Plan.spec) =
  let seed = spec.seed in
  let pmem =
    Sdevice.Pmem.create ~name:"check-pmem"
      ~capacity_bytes:(Int64.of_int (kreon_capacity_pages * psz))
      ()
  in
  (* a put is acked by the first msync that completes after it *)
  let h = history () in
  let pending : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let plan = Fault.Plan.make spec in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let mk_stack () =
    let ctx = Aquila.Context.create (stack_config ~policy 256) in
    let store = Blobstore.Store.create ~capacity_pages:kreon_capacity_pages () in
    let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
    (ctx, store, access)
  in
  let mk_db ctx store access =
    Kvstore.Kreon_sim.create ~ctx ~access ~store ~expected_records:kreon_ops
      ~value_bytes:24 ~config:kreon_config ()
  in
  let events =
    events_under plan (fun () ->
        let eng = Sim.Engine.create () in
        let ctx, store, access = mk_stack () in
        ignore
          (Sim.Engine.spawn eng ~core:0 (fun () ->
               Aquila.Context.enter_thread ctx;
               let db = mk_db ctx store access in
               let rng = Sim.Rng.create (0x9e3779b9 + seed) in
               try
                 for i = 1 to kreon_ops do
                   let k = kv_key ~keyspace:kreon_keyspace rng in
                   let v = kv_value ~digits:4 ~seed ~op:i k in
                   (* a crash inside put can land after an internal spill
                      already committed the log record, so the value may
                      be recovered although put never returned *)
                   record_write h k i v;
                   Kvstore.Kreon_sim.put db k v;
                   Hashtbl.replace pending k i;
                   if i mod kreon_sync_every = 0 then begin
                     Kvstore.Kreon_sim.msync db;
                     Hashtbl.iter (record_ack h) pending;
                     Hashtbl.reset pending
                   end
                 done
               with Fault.Io_error _ | Fault.Sigbus _ | Fault.Read_only _ ->
                 (* storm severe enough to fail the store: stop the
                    workload; everything acked so far must still hold *)
                 ()));
        Sim.Engine.run eng;
        Sim.Engine.events eng)
  in
  (* Restart (no plan): a fresh stack over the surviving pmem — the same
     creation sequence reproduces the blob layout — then recover and
     check every key against the oracle. *)
  let eng = Sim.Engine.create () in
  let ctx, store, access = mk_stack () in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Aquila.Context.enter_thread ctx;
         let db = mk_db ctx store access in
         (* a recover that blows up on the surviving bytes is itself a
            durability violation (e.g. a superblock committed ahead of
            the log pages it references) *)
         (try Kvstore.Kreon_sim.recover db
          with e ->
            violation "recover failed on surviving device: %s"
              (Printexc.to_string e);
            raise Exit);
         Hashtbl.iter
           (fun k _ ->
             Option.iter (violation "%s")
               (check_read h k (Kvstore.Kreon_sim.get db k)))
           h.writes));
  (try Sim.Engine.run eng with
  | Exit -> ()
  | e -> violation "restart verification failed: %s" (Printexc.to_string e));
  {
    crashed = Fault.Plan.crashed plan;
    events;
    fingerprint = fingerprint plan "";
    run_violations = List.rev !violations;
  }

(* ---- cluster: replicated aqcluster, one node crashed ---- *)

let cluster_ops = 150
let cluster_keyspace = 32

(* Read every history key back through the cluster API, in key order. *)
let cluster_readback ~eng ~kv ~h ~add ~tag =
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) h.writes [] |> List.sort String.compare
  in
  ignore
    (Sim.Engine.spawn eng ~name:(tag ^ "-oracle") (fun () ->
         List.iter
           (fun key ->
             let got = try kv.Ycsb.Runner.kv_read key with Rpc.Unreachable _ -> None in
             Option.iter (fun msg -> add (tag ^ ": " ^ msg)) (check_read h key got))
           keys));
  Sim.Engine.run eng

let cluster_once ~(cfg : Cluster.config) (spec : Fault.Plan.spec) =
  let seed = spec.seed in
  let plan = Fault.Plan.make spec in
  let h = history () in
  let violations = ref [] in
  let add s = violations := s :: !violations in
  let eng = Sim.Engine.create () in
  let cl = Cluster.create ~cfg ~eng () in
  let events =
    events_under plan (fun () ->
        Cluster.boot cl;
        Cluster.arm_fault cl plan;
        let kv = Cluster.kv cl in
        ignore
          (Sim.Engine.spawn eng ~name:"client" ~core:cfg.Cluster.nodes (fun () ->
               let rng = Sim.Rng.create (0xc105ed + seed) in
               for i = 1 to cluster_ops do
                 let key = kv_key ~keyspace:cluster_keyspace rng in
                 if i mod 5 = 0 then begin
                   (* read: may see anything from this run, never foreign *)
                   match try kv.Ycsb.Runner.kv_read key with Rpc.Unreachable _ -> None with
                   | Some v when written h key v = None ->
                       add (Printf.sprintf "run: key %s read foreign bytes %S" key v)
                   | _ -> ()
                 end
                 else begin
                   let v = kv_value ~digits:5 ~seed ~op:i key in
                   record_write h key i v;
                   match kv.Ycsb.Runner.kv_update key v with
                   | () -> record_ack h key i
                   | exception Rpc.Unreachable _ -> ()
                 end
               done));
        Sim.Engine.run eng;
        (* final anti-entropy pass now that writers stopped, then oracles *)
        ignore
          (Sim.Engine.spawn eng ~name:"final-resync" ~core:cfg.Cluster.nodes
             (fun () -> ignore (Cluster.resync cl)));
        Sim.Engine.run eng;
        cluster_readback ~eng ~kv ~h ~add ~tag:"run";
        List.iter (fun v -> add ("run: " ^ v)) (Cluster.convergence_violations cl);
        Sim.Engine.events eng)
  in
  (* restart verification: a fresh cluster over the surviving devices
     must serve the same durable truth (no plan installed) *)
  let eng2 = Sim.Engine.create () in
  let cl2 = Cluster.create ~cfg ~devices:(Cluster.devices cl) ~eng:eng2 () in
  (try
     Cluster.boot cl2;
     cluster_readback ~eng:eng2 ~kv:(Cluster.kv cl2) ~h ~add ~tag:"restart";
     List.iter (fun v -> add ("restart: " ^ v)) (Cluster.convergence_violations cl2)
   with e -> add ("restart verification failed: " ^ Printexc.to_string e));
  {
    crashed = Fault.Plan.crashed plan;
    events;
    fingerprint =
      Printf.sprintf "acked=%d %s" (Cluster.stats cl).Cluster.acked_writes
        (Cluster.device_digest cl :> string);
    run_violations = List.rev !violations;
  }

(* ---- the three sweeps ---- *)

let run_micro ?spec ?(broken = false) ?(policy = Mcache.Policy.Clock) ~seeds
    ~points () =
  sweep
    ~mode:(if broken then "micro/broken" else "micro")
    ?spec ~seeds ~points (micro_once ~broken ~policy)

let run_kreon ?spec ?(policy = Mcache.Policy.Clock) ~seeds ~points () =
  sweep ~mode:"kreon" ?spec ~seeds ~points (kreon_once ~policy)

let run_cluster ?(broken = false) ?(cfg = Cluster.default_config) ~seeds
    ~points () =
  let cfg = { cfg with Cluster.broken } in
  sweep ~mode:"cluster"
    ~targets:(List.init cfg.Cluster.nodes Option.some)
    ~seeds ~points (cluster_once ~cfg)
