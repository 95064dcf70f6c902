(** Deterministic discrete-event simulation engine.

    The engine advances a virtual clock measured in {e CPU cycles} and runs
    cooperative fibers (simulated threads) on top of OCaml effect handlers.
    Every simulated component charges cycles to the clock instead of
    consuming wall-clock time, which makes experiments exactly reproducible
    and lets us model a 32-hyperthread server inside one OCaml process.

    Internally the clock, per-fiber counters and the event queue all use
    unboxed native [int] cycles (virtual time fits in 62 bits); the [int64]
    signatures below are kept for callers holding [Hw.Costs] constants.
    Delays whose wake-up provably precedes every queued event take a fast
    path that skips the queue entirely while preserving the exact
    [(time, seq)] execution order — same-seed runs are byte-identical with
    the fast path on or off.

    Fibers interact with the engine through {!delay}, {!idle_wait},
    {!suspend}, {!now_f} and {!self}; these must only be called from code
    running inside a fiber spawned with {!spawn}. *)

type category =
  | User  (** cycles spent in application code (ring 3 / guest user logic) *)
  | Sys   (** cycles spent in kernel, hypervisor, or Aquila runtime code *)

type interns
(** Engine-wide cost-label intern table (labels map to dense array ids). *)

type ctx = {
  fid : int;  (** unique fiber id *)
  name : string;  (** fiber name, for diagnostics *)
  mutable core : int;  (** core the fiber is pinned to *)
  daemon : bool;  (** daemons do not count as live work *)
  mutable user : int;  (** accumulated {!User} cycles *)
  mutable sys : int;  (** accumulated {!Sys} cycles *)
  mutable idle : int;  (** accumulated cycles spent blocked *)
  mutable ev : int;
      (** events this fiber executed (spawn, delays, resumes) — shown by
          {!blocked_report} so a hung fiber's progress is visible *)
  mutable waiting_on : int;
      (** shard id of the {!Shard} cluster peer this fiber is blocked
          waiting on ([-1] when not waiting cross-shard) — set via
          {!set_waiting_on} before a cross-shard {!suspend}, cleared
          automatically when the fiber resumes, printed by
          {!blocked_report} so cross-shard deadlocks name the peer *)
  mutable node : int;
      (** cluster node id this fiber serves ([-1] when not part of a
          cluster) — set via {!set_node_id} by [Aqcluster] server fibers,
          printed by {!blocked_report} so cross-node RPC deadlocks triage
          in one line *)
  mutable lab : int array;
      (** cycles per interned label id — internal, read via {!labels} *)
  it : interns;  (** owning engine's intern table — internal *)
}
(** Per-fiber execution context and cycle accounting. *)

val labels : ctx -> (string * int64) list
(** [labels ctx] is the fiber's fine-grained cycle accounting as
    [(label, cycles)] pairs in first-use order, nonzero entries only. *)

val label_get : ctx -> string -> int64
(** [label_get ctx label] is the cycles charged to [label] (0 if never
    charged). *)

val set_waiting_on : ctx -> int -> unit
(** [set_waiting_on ctx sid] records that the fiber is about to block
    waiting for a message from cluster shard [sid] (a cross-shard inbox
    reply).  Cleared automatically when the fiber's {!suspend} resumes;
    callers that block repeatedly re-arm it before each wait. *)

val waiting_on : ctx -> int
(** [waiting_on ctx] is the shard id set by {!set_waiting_on}, or [-1]. *)

val set_node_id : ctx -> int -> unit
(** [set_node_id ctx nid] tags the fiber as serving cluster node [nid];
    {!blocked_report} then prints ["node nid"] alongside the fiber's core
    and awaited shard.  Persists for the fiber's lifetime. *)

val node_id : ctx -> int
(** [node_id ctx] is the cluster node id set by {!set_node_id}, or [-1]. *)

type t
(** A simulation engine instance. *)

val create : ?seed:int -> ?fastpath:bool -> unit -> t
(** [create ?seed ()] is a fresh engine with its clock at cycle 0 and
    one event queue ordered by [(time, seq)].  [seed] (default 42) seeds
    the engine-wide RNG.  [fastpath] (default [true]) enables the delay
    fast path; disabling it forces every event through the queue — same
    results, slower, used by [bench/run.exe] to measure the fast path's
    win.  Parallelism lives one level up: a {!Shard} cluster runs
    one engine per shard (DESIGN.md §9). *)

val now : t -> int64
(** [now t] is the current virtual time in cycles. *)

val rng : t -> Rng.t
(** [rng t] is the engine-wide deterministic RNG. *)

val events : t -> int
(** [events t] is the number of events executed so far (fast-pathed
    delays count exactly like queued ones). *)

val live_fibers : t -> int
(** [live_fibers t] is the number of non-daemon fibers spawned but not yet
    finished.  After {!run} returns, a non-zero value indicates fibers
    blocked forever (a deadlock or a missing signal). *)

val blocked_fibers : t -> (int * string) list
(** [blocked_fibers t] is the [(core, name)] of every non-daemon fiber
    currently parked in {!suspend} and never resumed, sorted by fiber id.
    After {!run} drains with [live_fibers t > 0], this names the deadlocked
    fibers instead of leaving users to guess. *)

val blocked_report : t -> string
(** [blocked_report t] is a multi-line deadlock report: every parked
    fiber (daemons flagged), its core, its cluster node id and awaited
    {!Shard} peer when set (so cross-shard and cross-node deadlocks are
    triageable), the number of events it executed
    ({!ctx.ev}), its user/sys/idle cycle totals, and its per-label cost
    breakdown ({!labels}) — so a fiber hung in a fault-injection retry
    loop ("io_retry") is distinguishable from one waiting on a lock.
    See README "Debugging deadlocks". *)

val set_event_hook : t -> (int -> unit) option -> unit
(** [set_event_hook t (Some f)] calls [f nevents] after every event —
    queued or fast-pathed — at the exact same ordinals either way.  [f]
    may raise to abort the run at an event boundary (fault-injection
    crashes); the exception propagates out of {!run}.  [None] (the
    default) costs one field load and branch per event. *)

val set_domain_event_hook : (int -> unit) option -> unit
(** Domain-local default for {!set_event_hook}, captured by engines at
    {!create} time — lets an ambient fault plan arm its crash trigger
    before the experiment constructs its engine.  Clearing it does not
    affect engines already created. *)

val spawn : t -> ?name:string -> ?core:int -> ?daemon:bool -> (unit -> unit) -> ctx
(** [spawn t f] schedules fiber [f] to start at the current virtual time and
    returns its context.  [core] (default 0) pins the fiber; [daemon]
    (default false) marks fibers that may legitimately outlive the
    workload (e.g. write-back daemons blocked on a wait queue). *)

val run : t -> unit
(** [run t] executes events until the queue drains.  Exceptions raised by
    fibers propagate out of [run]. *)

val run_until : t -> horizon:int -> unit
(** [run_until t ~horizon] executes events with virtual time strictly
    before [horizon] (unboxed cycles), leaving later events queued and
    the clock at the last executed event.  The windowed primitive behind
    {!Shard}'s conservative-parallel sync; [run t] is
    [run_until t ~horizon:max_int]. *)

val next_time : t -> int
(** [next_time t] is the earliest queued event time in unboxed cycles,
    or [max_int] when the engine is drained.  Only meaningful between
    runs (no fast-path continuation is pending). *)

val post : t -> at:int64 -> (unit -> unit) -> unit
(** [post t ~at f] injects an external event: [f] runs at virtual time
    [at] (clamped to now), after every event already queued for that
    time, outside any fiber.  [f] must not call fiber-side operations
    ({!delay}, {!suspend}, ...) directly — {!spawn} a fiber for work
    that needs them.  This is the cross-shard delivery primitive used by
    {!Shard} clusters. *)

(** {1 Fiber-side operations}

    These perform effects and must be called from inside a fiber. *)

val delay : ?cat:category -> ?label:string -> int64 -> unit
(** [delay c] advances the fiber by [c] cycles of {e active} CPU work,
    charged to [cat] (default {!User}) and, when given, to [label] in the
    fiber's per-label accounting (see {!labels}). *)

val idle_wait : int64 -> unit
(** [idle_wait c] blocks the fiber for [c] cycles {e without} consuming CPU:
    the time is charged to {!ctx.idle}.  Models waiting for a device. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the fiber and calls [register resume].  The
    fiber continues when [resume ()] is invoked (from any other fiber or
    engine callback); the blocked interval is charged to {!ctx.idle}.
    Calling [resume] more than once raises [Invalid_argument]. *)

val now_f : unit -> int64
(** [now_f ()] is {!now} for the enclosing fiber's engine. *)

val self : unit -> ctx
(** [self ()] is the current fiber's context. *)

val label_add : string -> int64 -> unit
(** [label_add label c] adds [c] cycles to the current fiber's [label]
    accounting bucket without advancing time.  Used to attribute a span
    measured with {!now_f} to a named category. *)

val ctx_label_add : ctx -> string -> int -> unit
(** [ctx_label_add ctx label c] is {!label_add} against an explicit
    context with unboxed cycles — the allocation-free form used by
    {!Costbuf.charge} on the fault hot path. *)
