(** Fiber-aware tracepoints over {!Trace}.

    Each probe stamps the event with the enclosing fiber's virtual time,
    core and fiber id, so instrumented subsystems need no plumbing.  When
    tracing is off ({!Trace.on} [= false]) every probe is a single
    load-and-branch; called outside a fiber, probes silently drop the
    event (there is no virtual clock to stamp it with). *)

val instant : ?cat:string -> ?value:int64 -> string -> unit
(** [instant name] marks a point event on the current fiber
    ([cat] defaults to ["sim"]). *)

val instant_on_core : core:int -> ?cat:string -> ?value:int64 -> string -> unit
(** [instant_on_core ~core name] marks a point event attributed to
    [core]'s hardware track (fiber 0) — e.g. an IPI arriving at a remote
    core — stamped with the {e calling} fiber's current time. *)

val counter : ?cat:string -> string -> int64 -> unit
(** [counter name v] samples counter [name] at the current virtual time. *)

val span_start : unit -> int64
(** [span_start ()] is the current virtual time when tracing is on, [0]
    otherwise.  Pair with {!span_since}. *)

val span_since : ?cat:string -> ?value:int64 -> t0:int64 -> string -> unit
(** [span_since ~t0 name] records a span from [t0] to now on the current
    fiber.  Use with {!span_start} to avoid closure allocation on hot
    paths. *)
