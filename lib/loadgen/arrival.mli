(** Seeded open-loop arrival processes (DESIGN.md §12).

    Every generator is a {e pure function} of [(seed, process, horizon)]:
    the stream is computed eagerly with a private splitmix64 generator
    before any engine event runs, so the same parameters produce the same
    arrival times — byte-for-byte — at any [--jobs] degree
    (a QCheck property enforces this).  Times are virtual cycles on the
    simulated 2.4 GHz clock; rates are offered load in operations per
    second of that clock. *)

type process =
  | Poisson of { rate : float }
      (** memoryless arrivals: exponential interarrival times with mean
          [clock_hz /. rate] cycles *)
  | Mmpp of {
      rate_on : float;  (** arrival rate while the source bursts *)
      rate_off : float;  (** arrival rate between bursts (may be 0) *)
      mean_on : float;  (** mean burst dwell in cycles (exponential) *)
      mean_off : float;  (** mean quiet dwell in cycles (exponential) *)
    }
      (** two-state Markov-modulated Poisson process: the source
          alternates between an ON and an OFF state with exponentially
          distributed dwell times, emitting Poisson arrivals at the
          state's rate — the classic bursty-traffic model *)
  | Diurnal of { rate_lo : float; rate_hi : float; period : float }
      (** non-homogeneous Poisson ramp: the instantaneous rate follows a
          raised cosine from [rate_lo] up to [rate_hi] and back over each
          [period] cycles (one period = one simulated "day"), sampled by
          thinning against [rate_hi] *)

type shape = Poisson_shape | Mmpp_shape | Diurnal_shape
(** Process family selector for sweeps: {!shaped} builds the canonical
    process of each family at a given mean offered rate. *)

val clock_hz : float
(** The simulated clock (2.4e9), converting rates to cycle gaps. *)

val name : process -> string
val shape_name : shape -> string

val shape_of_string : string -> (shape, string) result
(** ["poisson"], ["mmpp"] or ["diurnal"]. *)

val mean_rate : process -> float
(** Long-run offered load in ops/s: the rate itself (Poisson), the
    dwell-weighted state mix (MMPP), or the midpoint (diurnal ramp —
    the raised cosine averages to [(lo + hi) / 2]). *)

val shaped : shape -> rate:float -> horizon:int -> process
(** [shaped s ~rate ~horizon] is the canonical process of family [s]
    with mean offered load [rate]: plain Poisson; an MMPP bursting at
    [1.8 rate] for a mean 2 ms ON dwell and idling at [0.2 rate] for an
    equal OFF dwell (so the mix averages to [rate]); or a diurnal ramp
    between [0.4 rate] and [1.6 rate] over one [horizon]-long period. *)

val generate : seed:int -> horizon:int -> process -> int array
(** [generate ~seed ~horizon p] is the strictly increasing array of
    arrival times in cycles, each in [\[1, horizon)].  Pure: equal
    arguments give equal arrays, independent of any ambient engine or
    domain state.  Raises [Invalid_argument] on non-positive
    rates (an all-zero MMPP mix included) or dwell/period parameters. *)
