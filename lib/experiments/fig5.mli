(** Figure 5: RocksDB YCSB-C throughput — explicit read/write + user-space
    cache vs Linux [mmap] vs Aquila, on NVMe and pmem, for a dataset that
    fits in the cache (a) and one 4x larger (b). *)

type syskind = Rw | Mmap | Aquila_s

type meas = {
  thr : float;  (** ops/s at the simulated clock *)
  avg_lat : float;  (** mean op latency in cycles *)
  p999 : float;  (** 99.9th percentile latency in cycles *)
  ctxs : Sim.Engine.ctx list;  (** per-thread accounting (Figure 7) *)
  ops : int;
}

val run_a : unit -> unit
(** Print the Figure 5(a) panel (in-memory dataset). *)

val run_b : unit -> unit
(** Print the Figure 5(b) panel (4x dataset). *)

val run_for_breakdown : sys:syskind -> threads:int -> meas
(** One out-of-memory pmem run, used by Figure 7's cycle breakdown. *)
