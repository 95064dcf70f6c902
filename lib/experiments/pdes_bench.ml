(* Fig-scale workload for the conservative-parallel cluster (Sim.Shard).

   [cores] independent per-core Aquila stacks — each its own DRAM cache,
   blobstore and pmem device, sized like the fig5 out-of-memory point
   (cache = frames, file = file_pages > frames, zipf touches with a
   write fraction) — run a fig8-style page-fault loop, statically routed
   core -> shard = core mod shards.  Every [ipi_every] ops a core sends
   a posted IPI to the next core in the ring; deliveries cross shard
   boundaries through [Shard.post] and charge the model's IPI receive
   cost on the target core, so the conservative sync machinery is
   exercised by real cross-shard traffic, not just local work.

   Cross-shard IPIs are delivered one lookahead window after the send —
   modelling epoch-coalesced posted interrupts (the sender batches
   writes to the posted-interrupt descriptor; the target notices at its
   next epoch boundary).  [Hw.Costs.min_cross_shard_latency] (798
   cycles) is the hard floor for that epoch; the default below trades
   delivery granularity for window width, which is exactly the lever a
   PDES deployment tunes.

   Every per-core event stream is a pure function of the core index
   (own stack, own rng, IPI timestamps derived from the sender's own
   clock), so [events], [final_cycles] and [windows] in the returned
   stats are invariant across shard counts — the scaling bench gates
   them as deterministic counters while wall-clock speedup stays
   advisory. *)

type params = {
  cores : int;
  ops_per_core : int;
  frames : int;  (** DRAM cache frames per core's stack *)
  file_pages : int;  (** mapped file size; > frames forces eviction + I/O *)
  write_fraction : float;
  ipi_every : int;  (** ops between ring IPIs; 0 disables cross traffic *)
  seed : int;
}

let default =
  {
    cores = 32;
    ops_per_core = 1500;
    frames = 256;
    file_pages = 1024;
    write_fraction = 0.3;
    ipi_every = 64;
    seed = 7;
  }

(* Epoch-coalesced posted-IPI delivery latency, cycles.  >= the
   model floor (Hw.Costs.min_cross_shard_latency = 798); wide enough
   that a window amortizes its barrier over hundreds of events. *)
let default_lookahead = 20_000L

let build p sh =
  let shards = Sim.Shard.shards sh in
  let sid = Sim.Shard.sid sh in
  let la = Sim.Shard.lookahead sh in
  let eng = Sim.Shard.engine sh in
  let recv_cost = Hw.Costs.default.ipi_receive in
  for core = 0 to p.cores - 1 do
    if core mod shards = sid then begin
      let stack = Scenario.make_aquila ~frames:p.frames ~dev:Scenario.Pmem () in
      let sys = Microbench.Aq stack in
      let rng = Sim.Rng.create (p.seed + (core * 6151)) in
      ignore
        (Sim.Engine.spawn eng
           ~name:(Printf.sprintf "pdes-core-%d" core)
           ~core
           (fun () ->
             Microbench.enter sys;
             let region =
               Microbench.make_region sys
                 ~name:(Printf.sprintf "pdes-%d.dat" core)
                 ~pages:p.file_pages
             in
             let z = Ycsb.Zipfian.zipfian rng ~items:p.file_pages in
             for op = 1 to p.ops_per_core do
               let page = Ycsb.Zipfian.next z in
               let write = Sim.Rng.float rng < p.write_fraction in
               region.Microbench.touch ~page ~write;
               if p.ipi_every > 0 && op mod p.ipi_every = 0 then begin
                 let target = (core + 1) mod p.cores in
                 let at = Int64.add (Sim.Engine.now_f ()) la in
                 Sim.Shard.post sh ~to_:(target mod shards) ~at (fun peer ->
                     ignore
                       (Sim.Engine.spawn (Sim.Shard.engine peer)
                          ~name:"pdes-ipi" ~core:target (fun () ->
                            Sim.Engine.delay ~cat:Sim.Engine.Sys
                              ~label:"ipi_receive" recv_cost)))
               end
             done))
    end
  done

let run ?(deterministic = false) ?(shards = 1)
    ?(lookahead = default_lookahead) ?(p = default) () =
  Sim.Shard.run ~deterministic ~seed:p.seed ~shards ~lookahead (build p)
