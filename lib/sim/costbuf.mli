(** Labeled cycle accumulator.

    Simulated components accumulate software costs here while they mutate
    shared structures, then charge the total as {e one} engine delay at a
    point where suspension is safe.  This keeps multi-step critical
    sections atomic (the engine only interleaves fibers at suspension
    points) and keeps discrete-event counts low, while preserving
    per-label attribution for breakdown figures. *)

type t

val create : unit -> t

val add : t -> string -> int64 -> unit
(** [add t label c] accumulates [c] cycles under [label]. *)

val total : t -> int64

val charge : ?cat:Engine.category -> t -> unit
(** [charge t] advances the clock by {!total} (default category [Sys]),
    records each label in the current fiber's accounting, and resets [t].
    No-op when the total is zero.  Must run inside a fiber. *)
