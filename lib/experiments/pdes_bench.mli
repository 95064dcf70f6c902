(** Fig-scale sharded workload for the conservative-parallel engine
    ([Sim.Shard]): per-core Aquila stacks running a fig5-style
    out-of-memory page-fault loop (zipf touches, evictions, pmem I/O),
    plus a ring of posted IPIs that crosses shard boundaries through
    [Shard.post].  Used by the pdes section of [bench/run.exe] for the
    1/2/4/8-shard scaling curve.

    All virtual-time outcomes ([events], [final_cycles], [windows]) are
    invariant across shard counts and across deterministic vs
    free-running mode — each core's event stream depends only on its
    own index — which is what lets CI gate them exactly. *)

type params = {
  cores : int;
  ops_per_core : int;
  frames : int;  (** DRAM cache frames per core's stack *)
  file_pages : int;  (** mapped file size; > frames forces eviction + I/O *)
  write_fraction : float;
  ipi_every : int;  (** ops between ring IPIs; 0 disables cross traffic *)
  seed : int;
}

val default : params
(** 32 cores x 1500 ops, 256-frame caches over 1024-page files, 30%
    writes, an IPI every 64 ops — the fig5(b) out-of-memory shape. *)

val default_lookahead : int64
(** Epoch-coalesced posted-IPI delivery latency (20k cycles), the
    workload's true minimum cross-shard latency; always >=
    [Hw.Costs.min_cross_shard_latency]. *)

val build : params -> Sim.Shard.t -> unit
(** Per-shard builder: constructs stacks and spawns fibers for the
    cores this shard owns ([core mod shards = sid]). *)

val run :
  ?deterministic:bool ->
  ?shards:int ->
  ?lookahead:int64 ->
  ?p:params ->
  unit ->
  Sim.Shard.stats
(** [run ~shards ()] executes the workload on a fresh cluster and
    returns its terminal stats. *)
