(** aqcluster: N replicated Aquila nodes on one deterministic engine
    (DESIGN.md §11).

    Nodes sit behind a consistent-hash {!Router}; writes run primary →
    replica chain and acknowledge only after [replicas] durable WAL
    copies; node [i]'s handler fibers live on core [i], the external
    client on core [nodes].  An aqfault plan with [crash=N,node=I] downs
    node [I] at engine event ordinal [N]: the router re-routes (the next
    ring replica is the promoted primary), surviving members
    re-replicate shifted keys, and the node restarts, replays its WAL,
    and resyncs from the authoritative copies — its divergent tail, if
    any, is truncated.  [Fault_check.Check.run_cluster] sweeps (seed ×
    ordinal × node) and verifies no acknowledged write is ever lost. *)

type config = {
  nodes : int;
  replicas : int;  (** durable copies per key, primary included *)
  vnodes : int;  (** ring points per node *)
  node : Node.config;
  rpc : Rpc.config;
  broken : bool;
      (** teeth test: ack after the primary's durable write, replicate
          asynchronously — the sweep oracle must catch the lost-ack
          window this opens *)
  recovery_delay : int;  (** cycles from crash to restart *)
}

val default_config : config
(** 5 nodes, 3 replicas, 16 vnodes, correct (non-broken) replication. *)

type stats = {
  mutable acked_writes : int;
  mutable redirected : int;  (** client ops re-routed after a timeout *)
  mutable failovers : int;
  mutable resync_pages : int;  (** WAL pages pushed by resync *)
  mutable crash_ordinals : int list;  (** newest first *)
}

type t

val create :
  ?cfg:config -> ?devices:Sdevice.Block_dev.t array -> eng:Sim.Engine.t ->
  unit -> t
(** Builds nodes, router and RPC fabric on [eng].  [devices] adopts
    surviving NVMe devices (restart verification); call {!boot} before
    serving. *)

val boot : t -> unit
(** Spawns each node's boot fiber (stack open + WAL replay) and runs the
    engine until they drain. *)

val kv : t -> Ycsb.Runner.kv
(** The cluster as a kvstore — the {!Scenario.kv} shape, so YCSB
    workloads drive it unchanged.  All operations must run inside a
    fiber; writes raise {!Rpc.Unreachable} once the retry budget is
    exhausted. *)

val put : t -> string -> string -> unit
val get : t -> string -> string option
val scan : t -> start:string -> n:int -> (string * string) list

val arm_fault : t -> Fault.Plan.t -> unit
(** Consume the plan's [crash_at]/[node] as a node-targeted crash: an
    engine event hook downs that node at the ordinal (calling
    {!Fault.Plan.note_crash}) instead of raising {!Fault.Crash}. *)

val crash_node : t -> int -> ordinal:int -> unit
(** Down node [i] now: volatile state dies, placement re-routes, resync
    repairs the shifted keys, and recovery is scheduled after
    [recovery_delay].  Safe from an engine event hook. *)

val resync : t -> int
(** Run one anti-entropy pass from the current authoritative copies
    (max-op records on untainted live nodes) and return the number of
    pages pushed.  Fiber-only.  Runs automatically on failover and
    rejoin; call it once more after a workload drains to fix any churn
    from writes that raced the automatic passes. *)

val convergence_violations : t -> string list
(** For every key, all placement members must expose identical
    (op, value) state; returns human-readable mismatches. *)

val degraded : t -> bool
(** Some live node's DRAM cache is in read-only degraded mode — the
    cluster-level load-shedding signal for the open-loop harness. *)

val stats : t -> stats
val rpc_retries : t -> int
val live_view : t -> bool array
val node : t -> int -> Node.t
val devices : t -> Sdevice.Block_dev.t array

val device_digest : t -> Digest.t
(** Digest over every node's raw WAL device bytes — the determinism
    probe compared across repeat runs. *)
