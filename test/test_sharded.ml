(* Shard-owned partitioning: Shard_stack/Sharded parity across shard
   counts and modes, Partition vs plain Dram_cache, and the satellite
   knobs (device submission queues, blobstore free-list partitions). *)

let checki = Alcotest.(check int)
let psz = Hw.Defs.page_size
let c = Hw.Costs.default

(* Small but eviction-heavy shape: every run finishes in well under a
   second while still exercising miss/evict/writeback paths. *)
let small ?(write_fraction = 0.3) ?(pattern = Experiments.Sharded.Uniform)
    ?(msync_every = 0) ?(crash_at = None) ?(seed = 23) () =
  {
    Experiments.Sharded.homes = 4;
    cores = 8;
    ops_per_core = 60;
    batch = 4;
    frames_per_home = 32;
    file_pages = 512;
    write_fraction;
    pattern;
    msync_every;
    crash_at;
    seed;
  }

let sig_of ((st : Sim.Shard.stats), (ss : Experiments.Shard_stack.stats)) =
  Printf.sprintf "%s | events=%d final=%Ld windows=%d"
    (Experiments.Shard_stack.stats_to_string ss)
    st.Sim.Shard.events st.Sim.Shard.final_cycles st.Sim.Shard.windows

(* ---- determinism across shard counts (the tentpole contract) ---- *)

let parity_across_shard_counts () =
  let p = small () in
  let base = sig_of (Experiments.Sharded.run ~deterministic:true ~shards:1 ~p ()) in
  List.iter
    (fun shards ->
      let s =
        sig_of (Experiments.Sharded.run ~deterministic:true ~shards ~p ())
      in
      Alcotest.(check string)
        (Printf.sprintf "deterministic shards=%d == shards=1" shards)
        base s)
    [ 2; 4; 8 ]

let free_running_matches_deterministic () =
  let p = small ~write_fraction:0.5 ~seed:31 () in
  List.iter
    (fun shards ->
      let det =
        sig_of (Experiments.Sharded.run ~deterministic:true ~shards ~p ())
      in
      let free =
        sig_of (Experiments.Sharded.run ~deterministic:false ~shards ~p ())
      in
      Alcotest.(check string)
        (Printf.sprintf "free-running shards=%d == deterministic" shards)
        det free)
    [ 2; 4 ]

(* The QCheck sweep: any seed/write-mix/pattern, the partitioned cache
   reproduces the single-shard counters exactly at 2/4/8 shards. *)
let qcheck_partition_parity =
  QCheck.Test.make ~name:"partitioned stats invariant across shard counts"
    ~count:6
    QCheck.(triple (int_bound 1000) (int_bound 10) bool)
    (fun (seed, wf10, zipf) ->
      let p =
        small ~seed:(seed + 1)
          ~write_fraction:(float_of_int wf10 /. 10.)
          ~pattern:
            (if zipf then Experiments.Sharded.Zipf
             else Experiments.Sharded.Uniform)
          ()
      in
      let base =
        sig_of (Experiments.Sharded.run ~deterministic:true ~shards:1 ~p ())
      in
      List.for_all
        (fun shards ->
          base
          = sig_of (Experiments.Sharded.run ~deterministic:true ~shards ~p ()))
        [ 2; 4; 8 ])

(* ---- crash parity (faultcheck satellite) ---- *)

let crash_parity () =
  let p =
    small ~write_fraction:0.5 ~msync_every:4 ~crash_at:(Some 20_000_000)
      ~seed:41 ()
  in
  let base = sig_of (Experiments.Sharded.run ~deterministic:true ~shards:1 ~p ()) in
  List.iter
    (fun (shards, det) ->
      let s = sig_of (Experiments.Sharded.run ~deterministic:det ~shards ~p ()) in
      Alcotest.(check string)
        (Printf.sprintf "crash run shards=%d det=%b == baseline" shards det)
        base s)
    [ (2, true); (4, true); (4, false) ];
  (* the crash really fired: a rerun without it does more write-backs
     reaching the device than the crashed run only if dirty state was
     dropped; at minimum the two runs must disagree *)
  let no_crash =
    sig_of
      (Experiments.Sharded.run ~deterministic:true ~shards:1
         ~p:{ p with crash_at = None } ())
  in
  Alcotest.(check bool) "crash changes the schedule" true (base <> no_crash)

(* ---- Partition(homes = 1) == plain Dram_cache ---- *)

type rig = { cache : Mcache.Dram_cache.t }

let make_cache ~frames ~file_pages =
  let machine = Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  let cfg = Mcache.Dram_cache.default_config ~frames in
  let cache = Mcache.Dram_cache.create ~costs:c ~machine ~page_table:pt cfg in
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access = Sdevice.Access.dax_pmem c pmem in
  Mcache.Dram_cache.register_file cache ~file_id:1 ~access
    ~translate:(fun p -> if p < file_pages then Some p else None);
  Mcache.Dram_cache.set_shoot_cores cache [ 0 ];
  { cache }

let stream rng n file_pages =
  List.init n (fun _ ->
      (Sim.Rng.int rng file_pages, Sim.Rng.float rng < 0.4))

let single_home_partition_equals_plain () =
  let file_pages = 256 in
  let ops = stream (Sim.Rng.create 7) 400 file_pages in
  let drive fault =
    let eng = Sim.Engine.create () in
    ignore
      (Sim.Engine.spawn eng ~core:0 (fun () ->
           List.iter
             (fun (page, write) ->
               fault ~key:(Mcache.Pagekey.make ~file:1 ~page) ~vpn:page ~write)
             ops));
    Sim.Engine.run eng
  in
  let plain = make_cache ~frames:32 ~file_pages in
  drive (fun ~key ~vpn ~write ->
      Mcache.Dram_cache.fault plain.cache ~core:0 ~key ~vpn ~write ());
  let part_arena = make_cache ~frames:32 ~file_pages in
  let part = Mcache.Partition.create ~arenas:[| part_arena.cache |] () in
  drive (fun ~key ~vpn ~write ->
      Mcache.Partition.fault part ~core:0 ~key ~vpn ~write ());
  let pc = Mcache.Partition.counters part in
  checki "hits" (Mcache.Dram_cache.fault_hits plain.cache)
    pc.Mcache.Partition.fault_hits;
  checki "misses" (Mcache.Dram_cache.misses plain.cache) pc.Mcache.Partition.misses;
  checki "evictions" (Mcache.Dram_cache.evictions plain.cache)
    pc.Mcache.Partition.evictions;
  checki "wb_ios" (Mcache.Dram_cache.writeback_ios plain.cache)
    pc.Mcache.Partition.writeback_ios

let partition_routing () =
  let a0 = make_cache ~frames:8 ~file_pages:64 in
  let a1 = make_cache ~frames:8 ~file_pages:64 in
  let part = Mcache.Partition.create ~arenas:[| a0.cache; a1.cache |] () in
  checki "homes" 2 (Mcache.Partition.homes part);
  checki "page 5 -> home 1" 1 (Mcache.Partition.home_of part ~page:5);
  checki "page 6 -> home 0" 0 (Mcache.Partition.home_of part ~page:6);
  Alcotest.(check bool) "arena_for routes" true
    (Mcache.Partition.arena_for part ~page:5 == a1.cache);
  Alcotest.check_raises "empty partition rejected"
    (Invalid_argument "Partition.create: no arenas") (fun () ->
      ignore (Mcache.Partition.create ~arenas:[||] ()))

(* ---- device submission queues ---- *)

let device_queue_accounting () =
  let dev =
    Sdevice.Nvme.create ~queues:4 ~name:"nvme-q"
      ~capacity_bytes:(Int64.of_int (64 * psz))
      ()
  in
  checki "queues" 4 (Sdevice.Block_dev.queues dev);
  let eng = Sim.Engine.create () in
  let buf = Bytes.create psz in
  for core = 0 to 5 do
    ignore
      (Sim.Engine.spawn eng ~core (fun () ->
           Sdevice.Block_dev.read dev
             ~addr:(Int64.of_int (core * psz))
             ~len:psz ~dst:buf ~dst_off:0))
  done;
  Sim.Engine.run eng;
  let q = Sdevice.Block_dev.queue_submissions dev in
  checki "cores 0+4 share SQ0" 2 q.(0);
  checki "cores 1+5 share SQ1" 2 q.(1);
  checki "SQ2" 1 q.(2);
  checki "SQ3" 1 q.(3);
  checki "sums to I/Os" (Sdevice.Block_dev.reads dev)
    (Array.fold_left ( + ) 0 q)

(* ---- blobstore free-list partitions ---- *)

let blobstore_partitions () =
  let st =
    Blobstore.Store.create ~capacity_pages:(16 * 4) ~cluster_pages:4 ~shards:4 ()
  in
  checki "shards" 4 (Blobstore.Store.shards st);
  checki "even split" (4 * 4) (Blobstore.Store.shard_free_pages st 1);
  (* shard 2's first clusters are 2, 6, 10, ... *)
  let b = Blobstore.Store.create_blob st ~shard:2 ~pages:8 () in
  checki "home recorded" 2 (Blobstore.Store.blob_shard b);
  checki "first cluster from own partition" (2 * 4)
    (Blobstore.Store.device_page b 0);
  checki "second cluster from own partition" (6 * 4)
    (Blobstore.Store.device_page b 4);
  (* exhaust shard 0, then watch deterministic stealing from shard 1 *)
  let big = Blobstore.Store.create_blob st ~shard:0 ~pages:(4 * 4) () in
  checki "shard 0 dry" 0 (Blobstore.Store.shard_free_pages st 0);
  let steal = Blobstore.Store.create_blob st ~shard:0 ~pages:4 () in
  checki "steals shard 1's lowest cluster" (1 * 4)
    (Blobstore.Store.device_page steal 0);
  (* frees return clusters to their static owner *)
  Blobstore.Store.delete st big;
  checki "shard 0 refilled" (4 * 4) (Blobstore.Store.shard_free_pages st 0);
  checki "free_pages sums" (Array.fold_left ( + ) 0
     (Array.init 4 (Blobstore.Store.shard_free_pages st)))
    (Blobstore.Store.free_pages st);
  Alcotest.check_raises "bad shard rejected"
    (Invalid_argument "Blobstore.create_blob: shard 7 outside [0, 4)")
    (fun () -> ignore (Blobstore.Store.create_blob st ~shard:7 ~pages:4 ()))

let blobstore_unsharded_unchanged () =
  let st = Blobstore.Store.create ~capacity_pages:64 ~cluster_pages:4 () in
  let b = Blobstore.Store.create_blob st ~pages:12 () in
  checki "ascending clusters" 0 (Blobstore.Store.device_page b 0);
  checki "contiguous" 12 (Blobstore.Store.contiguous_run b 0)

(* ---- blocked_report waiting-on ---- *)

let blocked_report_waiting_on () =
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"stuck" ~core:0 (fun () ->
         let ctx = Sim.Engine.self () in
         Sim.Engine.set_waiting_on ctx 3;
         Sim.Engine.suspend (fun _resume -> ())));
  Sim.Engine.run eng;
  let report = Sim.Engine.blocked_report eng in
  Alcotest.(check bool) "names the awaited shard" true
    (let re = "waiting-on shard 3" in
     let len = String.length re in
     let n = String.length report in
     let rec scan i =
       i + len <= n && (String.sub report i len = re || scan (i + 1))
     in
     scan 0)

(* Requests that reach a home at one timestamp are served in (requester
   core, requester ordinal) order, whatever order they were posted in;
   a core count the merge key cannot hold is refused. *)
let equal_time_service_order () =
  let la = 1000L in
  let hub = Experiments.Shard_stack.create ~homes:1 ~cores:4 ~lookahead:la () in
  let served = ref [] in
  let make_arena ~home:_ =
    Mcache.Dram_cache.create ~costs:c ~machine:(Hw.Machine.create ())
      ~page_table:(Hw.Page_table.create ())
      (Mcache.Dram_cache.default_config ~frames:4)
  in
  ignore
    (Sim.Shard.run ~deterministic:true ~shards:1 ~lookahead:la (fun sh ->
         Experiments.Shard_stack.attach hub sh ~make_arena;
         List.iter
           (fun core ->
             ignore
               (Sim.Engine.spawn (Sim.Shard.engine sh) ~core (fun () ->
                    Experiments.Shard_stack.ship hub sh ~core
                      (List.init 2 (fun j ->
                           (0, fun _ -> served := (core, j) :: !served))))))
           [ 3; 1; 2; 0 ]));
  Alcotest.(check (list (pair int int)))
    "served in (core, ordinal) order"
    [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1) ]
    (List.rev !served);
  Alcotest.check_raises "core field full"
    (Invalid_argument "Shard_stack.create: cores must be <= 2^22") (fun () ->
      ignore
        (Experiments.Shard_stack.create ~homes:1 ~cores:((1 lsl 22) + 1)
           ~lookahead:la ()))

let () =
  Alcotest.run "sharded"
    [
      ( "parity",
        [
          Alcotest.test_case "shard counts" `Quick parity_across_shard_counts;
          Alcotest.test_case "free == deterministic" `Quick
            free_running_matches_deterministic;
          QCheck_alcotest.to_alcotest qcheck_partition_parity;
          Alcotest.test_case "crash parity" `Quick crash_parity;
        ] );
      ( "partition",
        [
          Alcotest.test_case "homes=1 == plain" `Quick
            single_home_partition_equals_plain;
          Alcotest.test_case "routing" `Quick partition_routing;
          Alcotest.test_case "equal-time service order" `Quick
            equal_time_service_order;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "device submission queues" `Quick
            device_queue_accounting;
          Alcotest.test_case "blobstore partitions" `Quick blobstore_partitions;
          Alcotest.test_case "blobstore unsharded" `Quick
            blobstore_unsharded_unchanged;
          Alcotest.test_case "blocked_report waiting-on" `Quick
            blocked_report_waiting_on;
        ] );
    ]
