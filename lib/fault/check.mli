(** Crash-consistency checker (DESIGN.md §7, §11): one crash sweep over
    three backends — the mmap microbenchmark, Kreon, and the replicated
    cluster.

    A {e combo} is one (workload seed, crash event ordinal, crash target)
    triple: the backend runs its workload under a {!Fault.Plan} whose
    [crash_at] cuts the power at that engine event — or, with [node] set,
    downs just that cluster node — checks what survived against a
    host-side durability oracle, and restarts a fresh stack over the same
    devices to prove the durable data is reachable again.

    The oracle is the paper-level durability contract: everything
    acknowledged (by a completed msync, or a returned cluster write) must
    survive intact (no loss, no staleness, no intra-page tear), while
    unacknowledged writes may land fully, partially (page-granular) or
    not at all — but never as bytes the workload did not write. *)

type report = {
  combos : int;  (** (seed x crash point x target) runs, probes excluded *)
  crashes : int;  (** combos whose run actually hit the injected crash *)
  violations : string list;  (** oracle failures, labelled *)
}

val empty : report
val ok : report -> bool

val merge : report -> report -> report
(** Order-sensitive on [violations]: merging per-seed reports in seed
    order gives the report of one sweep over all those seeds. *)

val pp_report : string -> Format.formatter -> report -> unit
(** [pp_report name] prints ["name: C combos, K crashed, V violations"],
    then one line per violation. *)

(** {1 The sweep} *)

type run = {
  crashed : bool;  (** the plan's crash fired *)
  events : int;  (** engine events of the run, or the crash ordinal *)
  fingerprint : string;
      (** what two runs of one spec must agree on: injection counters and
          device bytes, or acked writes and WAL bytes *)
  run_violations : string list;  (** oracle failures, unlabelled *)
}

val sweep :
  mode:string ->
  ?targets:int option list ->
  ?spec:Fault.Plan.spec ->
  seeds:int list ->
  points:int ->
  (Fault.Plan.spec -> run) ->
  report
(** [sweep ~mode once], per seed: two no-crash probes, which must agree on
    [events] and [fingerprint] (else one [nondeterministic] violation);
    then for [i = 1..points] the crash ordinal
    [max 1 (events * i / (points + 1))] of the first probe, crossed with
    every crash target in [targets] (default [[None]]: the whole run).
    [once] receives [spec] (default {!Fault.Plan.default}) with the
    sweep's own [seed], [crash_at] and [node].  Each violation is
    labelled [[mode seed=S crash=C node=I]], [crash] and [node] only
    where set. *)

(** {1 Backends} *)

val run_micro :
  ?spec:Fault.Plan.spec ->
  ?broken:bool ->
  ?policy:Mcache.Policy.kind ->
  seeds:int list ->
  points:int ->
  unit ->
  report
(** Versioned full-page writes through an Aquila mmap over an NVMe block
    device: random single-page writes with an msync every few ops.
    [spec] adds error injection on top of the crash.  [broken:true]
    disables {!Mcache.Dram_cache.config.wb_protect} — a deliberately
    broken stack whose durability violations this checker must report
    (see the test suite). *)

val run_kreon :
  ?spec:Fault.Plan.spec ->
  ?policy:Mcache.Policy.kind ->
  seeds:int list ->
  points:int ->
  unit ->
  report
(** A {!Kvstore.Kreon_sim} instance on DAX pmem: random puts with
    periodic msync commits, crash, restart + recover, then every acked
    key must return its acked (or a later) value and no key may return
    bytes that were never written. *)

val run_cluster :
  ?broken:bool ->
  ?cfg:Aqcluster.Cluster.config ->
  seeds:int list ->
  points:int ->
  unit ->
  report
(** A seeded mixed workload through {!Aqcluster.Cluster.kv}, each crash
    ordinal crossed with every node as the target.  After failover,
    recovery and resync drain, and again on a fresh cluster restarted
    from the surviving devices: every acknowledged write reads back as
    its value or a later one, reads never return foreign bytes, and all
    replicas converge.  With [~broken:true] the cluster acks before
    replicating; the sweep must then report violations. *)
