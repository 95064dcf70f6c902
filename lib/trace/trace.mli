(** Virtual-time tracing and metrics.

    Events — duration {e spans}, {e instant} markers and sampled
    {e counters} — are stamped with virtual cycles, a core id, a fiber id
    and a category, and stored in preallocated per-core ring buffers
    (oldest events are overwritten when a ring fills).  Exporters produce
    Chrome Trace Event JSON (loadable in Perfetto or [chrome://tracing],
    cores become "processes" and fibers "threads"), CSV, and a top-N span
    summary.

    The library is clock-agnostic and has no dependency on the simulator;
    [Sim.Probe] and the instrumentation hooks around the stack feed it.
    The ambient API ({!start}/{!stop}/{!on}) gates every emitter behind a
    single branch, so disabled tracing costs one load+branch per probe
    site; the same gate and domain-local slot carry the sampling
    profiler ({!start_profile}). *)

type kind = Span | Instant | Counter

type t
(** A tracer: per-core ring buffers plus fiber metadata. *)

val create : ?capacity_per_core:int -> ?max_cores:int -> unit -> t
(** [create ()] is a standalone tracer ([capacity_per_core] defaults to
    4096 events, [max_cores] to 64; rings are allocated whole on a core's
    first event).  Core ids outside [0, max_cores) are clamped. *)

(** {1 Ambient observers}

    Instrumentation across the stack emits into the tracer and the
    profiler installed in the running domain, so call sites need no
    plumbing.  Both sit in one domain-local record behind one gate. *)

val live : int Atomic.t
(** Process-wide count of domains holding a tracer or a profiler.  Hot
    probe sites may read it directly ([Atomic.get live > 0] — one plain
    load on x86) instead of calling {!on}; without cross-module inlining
    the extra call costs more than the check itself. *)

val on : unit -> bool
(** [on ()] is [true] when some domain holds an observer.  Probe sites
    must check this first; it is the whole disabled path.  A site that
    passes it still finds no tracer in a profile-only run. *)

type observers = private {
  mutable tracer : t option;
  mutable profiler : Metrics.Profile.t option;
}

val observers : unit -> observers
(** This domain's tracer and profiler. *)

val start : ?capacity_per_core:int -> ?max_cores:int -> unit -> t
(** [start ()] installs a fresh tracer as this domain's and enables
    tracing.  Returns the tracer (also retrievable via {!current}). *)

val stop : unit -> t option
(** [stop ()] uninstalls this domain's tracer, returning it (if any) for
    export. *)

val current : unit -> t option

val start_profile : Metrics.Profile.t -> unit
(** Installs [p] as this domain's profiler: the engine charges it with
    every span it books until {!stop_profile}. *)

val stop_profile : unit -> unit
(** Uninstalls this domain's profiler; its data stays readable through
    the value. *)

(** {1 Emission}

    [ts] is virtual cycles; [core]/[fiber] locate the event.  Emitters
    must only be called when tracing is wanted — they always record. *)

val span :
  t -> ts:int64 -> dur:int64 -> core:int -> fiber:int -> cat:string ->
  ?value:int64 -> string -> unit
(** [span t ~ts ~dur ~core ~fiber ~cat name] records a duration span
    [\[ts, ts+dur)].  [value] becomes an ["args"] payload in exports. *)

val instant :
  t -> ts:int64 -> core:int -> fiber:int -> cat:string -> ?value:int64 ->
  string -> unit

val counter : t -> ts:int64 -> core:int -> cat:string -> value:int64 -> string -> unit
(** [counter t ~ts ~core ~cat ~value name] samples counter [name]
    (rendered as a counter track in Perfetto). *)

val declare_fiber : t -> fiber:int -> core:int -> name:string -> unit
(** Registers a fiber's name so exports can label its thread track. *)

(** {1 Inspection} *)

val events_count : t -> int
(** Number of retained (not overwritten) events. *)

val dropped : t -> int
(** Number of events overwritten due to full rings. *)

type event = {
  ev_ts : int64;
  ev_dur : int64;
  ev_core : int;
  ev_fiber : int;
  ev_kind : kind;
  ev_cat : string;
  ev_name : string;
  ev_value : int64 option;
}

val events : t -> event list
(** Retained events sorted by [(ts, seq)] — the exporters' order. *)

(** {1 Export}

    All exporters order events by [(ts, seq)] where [seq] is a unique
    emission counter, so equal inputs produce byte-identical output. *)

val chrome_json : t -> string
val write_chrome_json : t -> string -> unit
val csv : t -> string
val write_csv : t -> string -> unit

type span_stat = {
  ss_cat : string;
  ss_name : string;
  ss_count : int;
  ss_total : int64;
}

val summary : ?top:int -> t -> span_stat list
(** Spans aggregated by (cat, name), sorted by total cycles descending
    (ties by name); at most [top] (default 20) entries. *)

val print_summary : ?top:int -> t -> unit
