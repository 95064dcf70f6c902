(** Open-loop latency-vs-offered-load experiments (registry id
    [openloop] and the [aquila_cli loadtest] subcommand).

    Drives the {!Loadgen} harness against three backends behind one
    interface — the Linux mmap sim, a single-node Aquila stack (both as
    uniform page touches on a 4x-out-of-memory DAX-pmem file), and the
    replicated aqcluster kvstore — and sweeps offered load to produce
    the hockey-stick p99-sojourn-vs-rate curve per backend.  Everything
    is a pure function of the parameters: reports are byte-identical at
    any [--jobs] degree (CI cmp-gates it). *)

type kind = Linux | Aquila | Cluster

val kind_name : kind -> string
val kind_of_string : string -> (kind, string) result

type params = {
  shape : Loadgen.Arrival.shape;  (** arrival-process family *)
  horizon : int;  (** injection window in cycles *)
  workers : int;  (** service fibers per backend *)
  queue_cap : int;  (** bounded admission queue *)
  slo_cycles : int;  (** sojourn SLO *)
  seed : int;  (** arrival + request-content seed *)
}

val default_params : params
(** Poisson, 24M-cycle (10 ms) window, 4 workers, 512-deep queue,
    1M-cycle SLO, seed 42. *)

type point = {
  p_kind : kind;
  p_rate : float;  (** offered load, ops/s of the simulated clock *)
  p_res : Loadgen.result;
  p_final : int64;  (** virtual cycles when the engine drained *)
  p_events : int;  (** engine events executed *)
}

val run_point : params -> kind -> rate:float -> point
(** One backend at one offered rate on a fresh engine (cluster points
    boot and preload a fresh 3-node cluster first). *)

val p99 : point -> float
(** The point's p99 sojourn in cycles, as a float for ratio math. *)

val knee : point list -> point option
(** First point (in list order — callers pass ascending rates) whose p99
    exceeds 8x the first point's p99: the hockey-stick knee. *)

val default_rates : float list
(** The sweep grid for the registry experiment, ascending. *)

val run : unit -> unit
(** The [openloop] registry experiment: sweep Linux and Aquila over
    {!default_rates}, run one cluster point, and print per-backend
    tables plus the hockey-stick summary (growth ratio and knee rate per
    backend, and whether Aquila's knee lands at a strictly higher rate
    than Linux's). *)

val loadtest :
  ?jobs:int ->
  ?fault:Fault.Plan.spec ->
  backends:kind list ->
  rates:float list ->
  params ->
  unit
(** The CLI driver: one {!Fanout} job per (backend, rate) point, each
    printing its own header and table row, so output is byte-identical
    at any parallelism degree. *)
