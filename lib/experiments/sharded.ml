(* Free-running shard-partitioned experiments (the fig5/fig10 shapes on
   [Shard_stack]).

   One logical mapped file is partitioned into [homes] fixed arenas —
   page [p] belongs to home [p mod homes] — each a complete Aquila DRAM
   cache over its own slice of the blobstore and its own device, owned
   by a server fiber on cluster shard [home mod shards].  [cores]
   requester fibers (core [c] on shard [c mod shards]) drive batched
   page faults through the function-shipping transport; every access,
   local or not, pays one cluster lookahead per hop, which is what
   makes the virtual-time schedule — and the terminal stats below — a
   pure function of the parameters, independent of the shard count and
   of free-running vs deterministic mode.

   Space comes from ONE shared blobstore created with [~shards:homes]:
   each home's blob allocates from its own free-cluster partition
   ([~shard:home]) before the cluster starts (the store is never touched
   mid-run, so it is read-only shared state); each home then reaches its
   device pages through its own NVMe instance with [~queues:homes]
   per-core submission queues.  The server fiber for home [h] is pinned
   to engine core [h], so its submissions land on SQ [h mod queues] —
   the per-shard submission pattern the paper's runtime gives each
   core. *)

let psz = Hw.Defs.page_size

type pattern = Uniform | Zipf

type params = {
  homes : int;  (** fixed logical arena count — invariant across shard counts *)
  cores : int;  (** requester fibers, statically routed core mod shards *)
  ops_per_core : int;
  batch : int;  (** pipelined faults per ship (outstanding window) *)
  frames_per_home : int;
  file_pages : int;  (** logical file size; > homes*frames forces eviction *)
  write_fraction : float;
  pattern : pattern;
  msync_every : int;  (** batches between msync_all rounds; 0 = never *)
  crash_at : int option;
      (** virtual time at which a crasher fiber ships a power-loss to
          every home (arenas drop DRAM state; later faults re-read) *)
  seed : int;
}

(* fig5(b) shape: uniform reads over a file ~4x the aggregate cache, the
   out-of-memory YCSB-C point. *)
let fig5_params =
  {
    homes = 8;
    cores = 32;
    ops_per_core = 400;
    batch = 8;
    frames_per_home = 256;
    file_pages = 8192;
    write_fraction = 0.0;
    pattern = Uniform;
    msync_every = 0;
    crash_at = None;
    seed = 11;
  }

(* fig10(a) shape: the dataset fits — first-touch faults, then hits. *)
let fig10_params =
  {
    homes = 8;
    cores = 32;
    ops_per_core = 400;
    batch = 8;
    frames_per_home = 1024;
    file_pages = 6144;
    write_fraction = 0.0;
    pattern = Zipf;
    msync_every = 0;
    crash_at = None;
    seed = 13;
  }

(* faultcheck shape: writes + periodic msync + a mid-run power loss. *)
let crash_params =
  {
    homes = 4;
    cores = 16;
    ops_per_core = 300;
    batch = 8;
    frames_per_home = 256;
    file_pages = 2048;
    write_fraction = 0.5;
    pattern = Uniform;
    msync_every = 8;
    crash_at = Some 40_000_000;
    seed = 17;
  }

let default_lookahead = Pdes_bench.default_lookahead

let pages_of_home p h = (p.file_pages - h + p.homes - 1) / p.homes

(* One arena = one home's private Aquila cache stack: its own machine,
   page table, NVMe device and cache, reaching only the pages it owns
   through its blob.  Built by [attach] on the owning domain so metric
   cells land where the shard executes. *)
let make_arena p blobs ~home =
  let costs = Hw.Costs.default in
  let machine = Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  let dev =
    Sdevice.Nvme.create ~queues:p.homes
      ~name:(Printf.sprintf "nvme-h%d" home)
      ~capacity_bytes:(Int64.of_int (Scenario.device_pages * psz))
      ()
  in
  let access = Sdevice.Access.spdk_nvme costs dev in
  let cfg =
    {
      (Mcache.Dram_cache.default_config ~frames:p.frames_per_home) with
      Mcache.Dram_cache.policy = Scenario.policy ();
    }
  in
  let cache = Mcache.Dram_cache.create ~costs ~machine ~page_table:pt cfg in
  let blob = blobs.(home) in
  Mcache.Dram_cache.register_file cache ~file_id:0 ~access
    ~translate:(fun lp ->
      if lp >= 0 && lp < p.file_pages && lp mod p.homes = home then
        Some (Blobstore.Store.device_page blob (lp / p.homes))
      else None);
  Mcache.Dram_cache.set_shoot_cores cache [ 0 ];
  cache

let key page = Mcache.Pagekey.make ~file:0 ~page

let build p hub blobs sh =
  let shards = Sim.Shard.shards sh in
  let sid = Sim.Shard.sid sh in
  let eng = Sim.Shard.engine sh in
  Shard_stack.attach hub sh ~make_arena:(make_arena p blobs);
  (* requesters *)
  for core = 0 to p.cores - 1 do
    if core mod shards = sid then begin
      let rng = Sim.Rng.create (p.seed + (core * 6151)) in
      ignore
        (Sim.Engine.spawn eng
           ~name:(Printf.sprintf "req-%d" core)
           ~core
           (fun () ->
             let z =
               match p.pattern with
               | Zipf -> Some (Ycsb.Zipfian.zipfian rng ~items:p.file_pages)
               | Uniform -> None
             in
             let next_page () =
               match z with
               | Some z -> Ycsb.Zipfian.next z
               | None -> Sim.Rng.int rng p.file_pages
             in
             let batches = (p.ops_per_core + p.batch - 1) / p.batch in
             let done_ = ref 0 in
             for b = 1 to batches do
               let n = min p.batch (p.ops_per_core - !done_) in
               done_ := !done_ + n;
               let items =
                 List.init n (fun _ ->
                     let page = next_page () in
                     let write = Sim.Rng.float rng < p.write_fraction in
                     (key page, page, write))
               in
               Shard_stack.fault_many hub sh ~core items;
               if p.msync_every > 0 && b mod p.msync_every = 0 then
                 Shard_stack.msync_all hub sh ~core
             done))
    end
  done;
  (* the crasher: one extra requester (core id [p.cores]) on shard 0
     that sleeps to the crash time, then ships a power loss to every
     home — just another request, so it lands at a deterministic slot in
     each server's merge order at any shard count and in either mode *)
  match p.crash_at with
  | Some at when sid = 0 ->
      ignore
        (Sim.Engine.spawn eng ~name:"crasher" ~core:p.cores (fun () ->
             let now = Sim.Engine.now eng in
             if Int64.compare (Int64.of_int at) now > 0 then
               Sim.Engine.idle_wait (Int64.sub (Int64.of_int at) now);
             Shard_stack.ship hub sh ~core:p.cores
               (List.init p.homes (fun hid ->
                    (hid, fun arena -> Mcache.Dram_cache.crash arena)))))
  | _ -> ()

let run ?(deterministic = false) ?(shards = 1) ?(lookahead = default_lookahead)
    ?(p = fig5_params) () =
  (* shared blobstore, partitioned [~shards:homes]; all allocation
     happens here on the calling domain — mid-run it is read-only *)
  let store =
    Blobstore.Store.create ~capacity_pages:Scenario.device_pages
      ~shards:p.homes ()
  in
  let blobs =
    Array.init p.homes (fun h ->
        Blobstore.Store.create_blob store
          ~name:(Printf.sprintf "part-%d.dat" h)
          ~shard:h ~pages:(pages_of_home p h) ())
  in
  let hub =
    Shard_stack.create ~homes:p.homes ~cores:(p.cores + 1) ~lookahead ()
  in
  let st =
    Sim.Shard.run ~deterministic ~seed:p.seed ~shards ~lookahead
      (build p hub blobs)
  in
  (st, Shard_stack.stats hub)

(* Ambient cluster mode, set once by the CLI before registry dispatch —
   how [--shards]/[--deterministic] reach the registry's thunks. *)
let ambient = ref (1, false)
let set_mode ~shards ~deterministic = ambient := (shards, deterministic)
let mode () = !ambient

(* Terminal stats: the invariant lines are byte-identical at any shard
   count and in either mode (CI compares them); '#'-prefixed balance
   lines are the N-dependent load picture and are filtered out by the
   parity gates. *)
let print_result ~title (st : Sim.Shard.stats) (ss : Shard_stack.stats) =
  Sim.Sink.printf "%s\n" title;
  Sim.Sink.printf "%s\n" (Shard_stack.stats_to_string ss);
  Sim.Sink.printf "events=%d final_cycles=%Ld windows=%d\n" st.Sim.Shard.events
    st.Sim.Shard.final_cycles st.Sim.Shard.windows;
  Sim.Sink.printf "# shards=%d cross_posts=%d shard_events=[%s] shard_drains=[%s]\n"
    st.Sim.Shard.shards st.Sim.Shard.cross_posts
    (String.concat ";"
       (Array.to_list (Array.map string_of_int st.Sim.Shard.shard_events)))
    (String.concat ";"
       (Array.to_list (Array.map string_of_int st.Sim.Shard.shard_drains)))

let run_named ~title p =
  let shards, deterministic = mode () in
  let st, ss = run ~deterministic ~shards ~p () in
  print_result ~title st ss

let run_fig5s () =
  run_named
    ~title:
      "Figure 5s: shard-partitioned uniform reads, out-of-memory (free-running \
       under --shards N; stats invariant across N and mode)"
    fig5_params

let run_fig10s () =
  run_named
    ~title:
      "Figure 10s: shard-partitioned zipf reads, dataset fits (first-touch \
       faults then hits)"
    fig10_params

let run_crashcheck () =
  run_named
    ~title:
      "Crashcheck-s: shard-partitioned writes + msync with a mid-run power \
       loss shipped to every home"
    crash_params
