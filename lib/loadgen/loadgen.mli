(** Open-loop load generator (DESIGN.md §12).

    Unlike every closed-loop experiment in the repo — where the next
    operation issues only when the previous one returns — the load
    generator injects requests at times drawn from a seeded
    {!Arrival.process}, {e independent of how fast the backend absorbs
    them}.  Requests queue behind a bounded admission buffer served by a
    fixed pool of worker fibers; per-request {e sojourn} latency
    (arrival → completion, so queueing delay is included) feeds a
    {!Stats.Histogram} and the aqmetrics registry.  This is the setup
    that produces hockey-stick latency-vs-offered-load curves and makes
    tail SLOs meaningful.

    Admission control is deterministic: an arrival is shed when the
    bounded queue is full, or — when [shed_when_degraded] is set — while
    the backend reports degraded mode (the DRAM cache's read-only
    fallback after a write-back error storm).  Everything runs as
    ordinary engine events in [(time, seq)] order, so results are
    byte-identical at any [--jobs] degree. *)

module Arrival = Arrival

type config = {
  process : Arrival.process;  (** arrival process (see {!Arrival}) *)
  horizon : int;  (** injection window in cycles from load start *)
  workers : int;  (** service fibers draining the admission queue *)
  queue_cap : int;  (** bounded admission queue capacity *)
  slo_cycles : int;
      (** sojourn SLO in cycles; completions slower than this count as
          violations ([0] disables SLO accounting) *)
  seed : int;  (** arrival-stream seed (see {!Arrival.generate}) *)
  shed_when_degraded : bool;
      (** shed at admission while [backend.degraded ()] holds *)
}

type backend = {
  name : string;  (** metrics label and report key *)
  serve : int -> unit;
      (** [serve i] performs request [i] (0-based arrival index); called
          from a worker fiber, so it may use fiber operations and charge
          cycles *)
  degraded : unit -> bool;
      (** polled at admission time for the load-shedding knob; return
          [false] if the backend has no degraded mode *)
}

type result = {
  arrivals : int;  (** requests generated inside the horizon *)
  admitted : int;  (** requests that entered the queue *)
  completions : int;  (** requests served to completion *)
  shed_full : int;  (** arrivals dropped on a full queue *)
  shed_degraded : int;  (** arrivals dropped by the degraded-mode knob *)
  slo_violations : int;  (** completions with sojourn > [slo_cycles] *)
  max_depth : int;  (** peak admission-queue depth *)
  sojourn : Stats.Histogram.t;  (** per-request sojourn cycles *)
}

val shed : result -> int
(** [shed r] is [r.shed_full + r.shed_degraded]. *)

val run : Sim.Engine.t -> config -> (unit -> backend) -> result
(** [run t cfg mk] drives one open-loop run to completion on engine [t]
    and returns the tally.  [mk] is evaluated inside a fresh fiber on
    [t] {e before} any load is injected, so it may perform fiber-only
    setup (mapping a region, booting a cluster); arrival times are
    offset by the virtual time at which setup finishes.  [run] calls
    {!Sim.Engine.run} itself — the engine must not already be running —
    and raises [Invalid_argument] on a non-positive [horizon],
    [workers] or [queue_cap].

    Per-backend series are recorded in the aqmetrics registry:
    [loadgen_arrivals_total], [loadgen_admitted_total],
    [loadgen_completions_total], [loadgen_shed_total{reason=full|degraded}],
    [loadgen_slo_violations_total] and the [loadgen_sojourn_cycles]
    histogram, all labelled [backend=<name>]. *)
