(** Replacement-policy ablation (DESIGN.md §5): sweeps every
    {!Mcache.Policy.kind} over two workloads —

    - [Zipf_mix]: the fig5-style pressure test (zipfian hot set, file 4x
      the cache, 20 % writes), where better recency tracking buys hits;
    - [Scan_mix]: an anti-LRU adversary (hot set fitting half the cache
      plus periodic one-shot scans of cache-sized cold runs), where
      scan-resistance decides whether the hot set survives.

    Policies charge their own bookkeeping cycles ({!Mcache.Policy}), so
    rows differ in virtual time per op as well as hit rate.  Results are
    deterministic: everything except the [wall_s]/events-per-second
    fields depends only on seeds, never on the host. *)

type workload = Zipf_mix | Scan_mix

val workload_name : workload -> string

type row = {
  workload : workload;
  policy : Mcache.Policy.kind;
  ops : int;
  hits : int;  (** fault-level hits (page resident but unmapped) *)
  misses : int;  (** device reads *)
  hit_rate : float;  (** access-level: [(ops - misses) / ops] *)
  evictions : int;
  wb_pages : int;
  vtime_per_op : float;  (** virtual cycles per op — the headline number *)
  events : int;  (** engine events executed (wall-throughput denominator) *)
  wall_s : float;  (** host seconds — never gated in CI *)
}

val run_one :
  ?frames:int ->
  ?threads:int ->
  ?ops_per_thread:int ->
  workload:workload ->
  policy:Mcache.Policy.kind ->
  unit ->
  row
(** One (workload, policy) cell on a fresh stack.  Defaults: 1024 frames,
    8 threads, 4000 ops/thread. *)

val sweep :
  ?frames:int ->
  ?threads:int ->
  ?ops_per_thread:int ->
  ?policies:Mcache.Policy.kind list ->
  unit ->
  row list
(** All requested policies (default {!Mcache.Policy.all_kinds}) over both
    workloads. *)

val print_rows : row list -> unit
(** Table via {!Sim.Sink} (fan-out- and capture-friendly). *)

val leaves : row list -> (string * string) list
(** [("workload.policy.metric", number)] pairs, the number already
    rendered as JSON, for the mcache section of bench/run's BENCH.json;
    keys ending in [".wall"] are wall-clock-derived and never gated. *)

val run : unit -> unit
(** [sweep] + [print_rows] with defaults (registry id [ablation-policy]). *)
