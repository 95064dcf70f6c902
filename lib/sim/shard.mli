(** Conservative parallel discrete-event simulation (PDES) across OCaml 5
    domains.

    A cluster partitions a simulation into [shards], each a complete
    single-queue {!Engine} owned by one domain.  Execution proceeds in
    windows: every shard runs its local events in [[T, T + lookahead)]
    concurrently, with no synchronization inside the window, then
    crosses one barrier, and the next window starts at the global
    minimum next-event time.  [lookahead] is the Chandy–Misra–Bryant
    conservative promise: {!post} refuses cross-shard events timestamped
    earlier than [now + lookahead], so nothing a peer does mid-window
    can land inside the window.  Derive it from the cost model —
    [Hw.Costs.min_cross_shard_latency] (posted-IPI send + receive, 798
    cycles) is the universal floor; workloads whose only cross-shard
    traffic is coarser (device completions, epoch-batched IPIs) should
    declare their larger true latency, which directly widens the window
    and cuts barrier overhead.

    One barrier per window.  At the end of its run phase a shard
    publishes its engine's next-event time and the earliest timestamp
    it posted in the window; the next window starts at the minimum over
    both, which is what the engines would report once those posts were
    delivered.  Cross-shard posts go into lock-free single-writer
    outboxes, one per (source, target) pair, double-buffered by window
    parity so a shard can fill the next window's outboxes while its
    peers still drain this one's.  A post made in window W is delivered
    at the top of window W+1 in merge-key order
    [(time, source shard, source ordinal)], so the virtual-time
    schedule — event order, counters, final clock — is a pure function
    of the build, independent of domain scheduling.

    Waiters at the barrier spin ([Domain.cpu_relax]) only when the
    shards fit the cores ([shards <= Domain.recommended_domain_count ()]),
    then park.  Each shard's spin budget adapts — doubled after a wait
    spinning covered, halved after one that parked — so spinning pays
    off when peers run in parallel and backs off when they are
    descheduled (another process on the same cores).

    [deterministic] mode runs the identical window step on one domain
    (shards in ascending id order) and must produce identical terminal
    state to the free-running mode; the test suite holds both modes to
    that contract.

    This module parallelizes {e one} simulation; [Experiments.Fanout]'s
    [--jobs] parallelizes {e across} independent experiments.  See
    DESIGN.md §9. *)

type t
(** Handle to one shard, passed to the builder and to delivery
    callbacks; valid for the lifetime of {!run}. *)

type stats = {
  shards : int;  (** cluster size *)
  lookahead : int;  (** window width, cycles *)
  events : int;  (** total engine events across all shards *)
  final_cycles : int64;  (** max terminal virtual time across shards *)
  cross_posts : int;  (** cross-shard events sent through outboxes *)
  windows : int;  (** windows with work *)
  run_wall_s : float;
      (** wall-clock seconds of the windowed run only — stamped between
          the post-build barrier and the end of the last window,
          excluding [Domain.spawn], builder time, and join/teardown, so
          events/sec derived from it measures the engine *)
  shard_events : int array;
      (** engine events executed per shard — the load-balance picture;
          sums to [events] *)
  shard_drains : int array;
      (** cross-shard outbox items delivered to each shard; sums to
          [cross_posts] once the cluster drains *)
  wait_s : float array;
      (** per shard, wall-clock seconds spent spinning or parked at the
          window barrier; all zero in deterministic mode *)
  busy_s : float array;
      (** per shard, wall-clock seconds spent delivering posts and
          running windows *)
}
(** Terminal cluster statistics.  Every field except [run_wall_s],
    [wait_s] and [busy_s] (same clock) is a deterministic pure function
    of the build at any shard count. *)

val run :
  ?deterministic:bool ->
  ?seed:int ->
  shards:int ->
  lookahead:int64 ->
  (t -> unit) ->
  stats
(** [run ~shards ~lookahead build] creates [shards] engines, calls
    [build] once per shard (on the shard's own domain in free-running
    mode, so metric/trace cells land where the shard executes), then
    runs the windowed protocol to completion and returns the terminal
    {!stats}.

    [deterministic] (default [false]) replays the same window algorithm
    on the calling domain — identical terminal state, no parallelism.
    [seed] (default 42) derives each shard engine's RNG seed.
    [build] typically spawns fibers on [engine sh] for the components
    this shard owns (route statically: e.g. core [c] belongs to shard
    [c mod shards sh]).

    An exception from a shard's builder or one of its fibers marks that
    shard failed, lets the rest of the cluster drain (the failed shard
    keeps crossing the barrier with nothing to run, so nobody
    deadlocks), and re-raises after all domains join.
    Raises [Invalid_argument] for [shards < 1] or [lookahead < 1]. *)

val post : t -> to_:int -> at:int64 -> (t -> unit) -> unit
(** [post sh ~to_ ~at f] schedules [f] to run at virtual time [at] on
    shard [to_]; [f] receives the {e target} shard's handle and runs
    outside any fiber — [Engine.spawn (engine target)] for work that
    needs to delay or block (e.g. charging an IPI receive cost).

    Cross-shard ([to_ <> sid sh]) posts must honour the conservative
    promise [at >= Engine.now (engine sh) + lookahead] — violations
    raise [Invalid_argument] immediately (a model bug: the declared
    lookahead overstates the workload's true minimum latency).
    Posts to the own shard are ordinary external events with no lower
    bound beyond the clock. *)

val sid : t -> int
(** [sid sh] is this shard's id in [[0, shards)]. *)

val shards : t -> int
(** [shards sh] is the cluster size. *)

val lookahead : t -> int64
(** [lookahead sh] is the cluster's window width in cycles. *)

val engine : t -> Engine.t
(** [engine sh] is the shard's engine — spawn this shard's fibers on
    it.  Builders must not touch a peer shard's engine; cross-shard
    effects go through {!post}. *)
