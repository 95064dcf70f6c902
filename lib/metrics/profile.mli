(** Virtual-time sampling profiler over the engine's cost labels.

    Samples are taken on a fixed virtual-time grid: a charge of [c]
    cycles at time [now] earns one sample per grid point in
    [(now, now+c]].  The profile is a pure function of the deterministic
    schedule, so same-seed runs produce byte-identical output.

    A profiler is a plain value.  [Trace.start_profile] installs one as
    its domain's profiler, which the engine then charges; it stays
    readable after [Trace.stop_profile] removes it. *)

type t

val create : ?period:int -> ?ts_period:int -> unit -> t
(** [create ()] is an empty profiler.  [period] (default 10_000) is the
    sampling grid in virtual cycles; [ts_period] (default 0 = off)
    additionally records a full metrics snapshot every [ts_period]
    cycles for {!timeseries_csv}. *)

val charge : t -> now:int -> cycles:int -> fiber:string -> label:string -> unit
(** Credit the span [[now, now+cycles)] of [fiber] doing [label]. *)

val folded : t -> string
(** Folded-stack output ("fiber;label count" lines, sorted), compatible
    with flamegraph.pl / speedscope. *)

val timeseries_csv : t -> string
(** Long-format CSV ([cycles,key,value]) of the periodic snapshots,
    with RFC 4180 field escaping. *)
