(** Binary min-heap keyed by [(time, sequence)] pairs, with payloads held
    off-heap.

    Used by the discrete-event engine to order pending events.  Ties on
    [time] are broken by the sequence number, which makes event ordering
    — and therefore every simulation — deterministic.  Keys must be
    unique.

    Keys are plain native [int]s (virtual time fits in 62 bits) and a
    sift moves only keys and payload indices, so pushes and pops touch
    no boxed values and allocate nothing outside growth. *)

type 'a t
(** A mutable priority queue holding values of type ['a]. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty queue.  [dummy] fills payload slots that
    hold no entry, so a popped value is not kept alive by the queue. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push q ~time ~seq v] inserts [v] with priority [(time, seq)]. *)

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
