(** Structure-of-arrays 4-ary min-heap keyed by [(time, sequence)] pairs.

    Used by the discrete-event engine to order pending events.  Ties on
    [time] are broken by the monotonically increasing sequence number, which
    makes event ordering — and therefore every simulation — deterministic.

    Times are plain native [int] cycles (virtual time fits in 62 bits), so
    pushes and pops touch no boxed values and allocate nothing. *)

type 'a t
(** A mutable priority queue holding values of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val length : 'a t -> int
(** [length q] is the number of queued elements. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [length q = 0]. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push q ~time ~seq v] inserts [v] with priority [(time, seq)]. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop q] removes and returns the element with the smallest
    [(time, seq)] key, or [None] if the queue is empty. *)

val min_time : 'a t -> int
(** [min_time q] is the key time of the head, or [max_int] when empty.
    Allocation-free, for hot-path comparisons. *)

type 'a slot = { mutable s_time : int; mutable s_seq : int; mutable s_val : 'a }
(** Caller-owned out-cell for {!pop_into}: reusing one slot across a
    drain loop makes each pop three plain stores, with no option or
    tuple boxed per event. *)

val slot : dummy:'a -> 'a slot
(** [slot ~dummy] is a fresh slot; [dummy] seeds [s_val] until the first
    successful {!pop_into}. *)

val pop_into : 'a t -> 'a slot -> before:int -> bool
(** [pop_into q out ~before] pops the head into [out] and returns [true]
    when the head's time is strictly earlier than [before]; otherwise
    leaves the queue untouched and returns [false].  The allocation-free
    primitive behind the engine's drain loop. *)
