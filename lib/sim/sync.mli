(** Synchronization primitives for simulated fibers.

    All primitives are FIFO and deterministic.  They keep no wait counts
    of their own: the engine books a blocked fiber's wait as its idle time
    and, while tracing, as a ["blocked"] span, which is where lock
    contention (e.g. on the Linux page-cache [tree_lock]) shows up. *)

(** Condition-variable-style wait queue. *)
module Waitq : sig
  type t

  val create : unit -> t

  val wait : t -> unit
  (** [wait q] parks the calling fiber until a signal arrives. *)

  val signal : t -> bool
  (** [signal q] wakes the longest-waiting fiber.  Returns [false] if no
      fiber was waiting. *)

  val broadcast : t -> int
  (** [broadcast q] wakes all waiting fibers, returning how many. *)
end

(** FIFO mutex.

    [acquire_cost] models the uncontended hardware cost of the lock
    operation (an atomic RMW plus cache-line transfer) and is charged on
    every [lock]. *)
module Mutex : sig
  type t

  val create : ?name:string -> ?acquire_cost:int64 -> unit -> t
  (** [create ()] is an unlocked mutex.  [acquire_cost] defaults to 40
      cycles. *)

  val lock : ?cat:Engine.category -> t -> unit
  (** [lock m] acquires [m], blocking FIFO if held.  Charges
      [acquire_cost] to [cat] (default [Sys]). *)

  val unlock : t -> unit
  (** [unlock m] releases [m], handing ownership to the next waiter if
      any.  Raises [Invalid_argument] if [m] is not locked. *)

  val with_lock : ?cat:Engine.category -> t -> (unit -> 'a) -> 'a
end

(** Counted resource with FIFO admission — models device channels or queue
    slots: a fiber holds one unit of capacity between {!acquire} and
    {!release}. *)
module Resource : sig
  type t

  val create : ?name:string -> capacity:int -> unit -> t

  val acquire : t -> unit
  (** [acquire r] takes one capacity unit, blocking FIFO when exhausted. *)

  val release : t -> unit
  val in_use : t -> int
end

(** Write-once synchronization cell (future/promise). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** [read i] blocks until [i] is filled, then returns the value. *)

  val is_filled : 'a t -> bool
end
