(** Shard-owned partitioned cache state for free-running clusters.

    Splits one logical DRAM cache into a fixed number of [homes] —
    independent {!Mcache.Dram_cache} arenas, aggregated through
    {!Mcache.Partition} — and gives each home to a server fiber on
    cluster shard [home mod shards].  Requesters function-ship cache
    operations to the owning server over [Sim.Shard.post], charged one
    cluster lookahead per hop (>= [Hw.Costs.min_cross_shard_latency]);
    the server executes them in deterministic merge-key order
    [(timestamp, requester core, requester ordinal)], popping only
    strictly-past entries so arrival races can never reorder service.

    Because the home count is decoupled from the physical shard count —
    and every request pays the shipping latency even when requester and
    home share a shard — the virtual-time schedule, and therefore
    {!stats}, is byte-identical at any shard count and in free-running
    vs deterministic mode.  DESIGN.md §10. *)

type t

val create : homes:int -> cores:int -> lookahead:int64 -> unit -> t
(** Build the hub {e before} [Sim.Shard.run]; it is shared by every
    shard's builder.  [cores] bounds requester core ids (per-core
    ordinal counters) and must be at most 2{^22}, the core field of the
    merge key.  [lookahead] must equal the cluster's. *)

val homes : t -> int
val lookahead : t -> int64
val home_of : t -> page:int -> int

val attach :
  t -> Sim.Shard.t -> make_arena:(home:int -> Mcache.Dram_cache.t) -> unit
(** Call from each shard's build function: constructs the arenas for the
    homes this shard owns ([home mod shards = sid]) via [make_arena] —
    so metric cells land on the executing domain — and spawns their
    server fibers (daemons; a drained cluster ends with them parked). *)

val ship :
  t -> Sim.Shard.t -> core:int -> (int * (Mcache.Dram_cache.t -> unit)) list -> unit
(** [ship t sh ~core jobs] posts each [(home, op)] to its owning server
    and blocks until every reply lands — the primitive {!fault_many} and
    {!msync_all} are built on.  Ops run inside the server fiber and may
    suspend; charge arena costs there.  Requests with equal timestamps
    are served in (requester core, requester ordinal) order.  Raises
    [Invalid_argument] once [core] has shipped 2{^40} requests, the
    ordinal field of the merge key. *)

val fault :
  t -> Sim.Shard.t -> core:int -> key:Mcache.Pagekey.t -> vpn:int -> write:bool -> unit
(** Ship one fault to the page's home and block until the reply.  Must
    run inside a requester fiber; [core] is the requester's global core
    id. *)

val fault_many :
  t -> Sim.Shard.t -> core:int -> (Mcache.Pagekey.t * int * bool) list -> unit
(** Pipelined batch: all requests post at the same timestamp, the fiber
    resumes when the last reply lands — the batching that buys the
    free-running wall-clock speedup (B outstanding requests amortize
    2 x lookahead per op into 2 x lookahead per batch). *)

val msync_all : t -> Sim.Shard.t -> core:int -> unit
(** Ship an msync to every home and await all replies. *)

val crash_all : t -> unit
(** Power-loss injection on every attached arena (outside the cluster:
    call after [Sim.Shard.run] returns, or from a post at a fixed
    virtual time). *)

val partition : t -> Mcache.Partition.t
(** The arenas as an {!Mcache.Partition} (all homes must be attached —
    valid once [Sim.Shard.run] returned, or in-cluster on a fully built
    single shard). *)

(** {1 Terminal statistics} *)

type stats = {
  homes_n : int;
  counters : Mcache.Partition.counters;  (** summed over arenas, home order *)
  served : int array;  (** requests executed per home *)
  local_ops : int;  (** requests whose home shared the requester's shard *)
  remote_ops : int;  (** requests that crossed shards *)
}

val stats : t -> stats
(** Everything except the local/remote split is invariant across shard
    counts and modes; [local_ops + remote_ops] is. *)

val stats_to_string : stats -> string
(** One-line N-invariant rendering (only the local+remote total appears)
    — the line CI's terminal-stats parity gates compare byte-for-byte. *)
