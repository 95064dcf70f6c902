(** Radix tree over non-negative integer keys.

    Models the structure RadixVM [13] and Aquila (Section 3.4) use for
    virtual-address-range metadata, and the structure the Linux page cache
    uses to index cached pages.  Six bits per level; the height grows on
    demand, and inserts and removes update the nodes in place.  Lookups
    are lock-free in Aquila's design, so the tree itself carries no lock
    — callers add one where the modelled system has one (e.g. Linux's
    [tree_lock]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val find : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val insert : 'a t -> int -> 'a -> 'a option
(** [insert t k v] binds [k]; returns a previous binding if replaced. *)

val remove : 'a t -> int -> 'a option

val find_floor : 'a t -> int -> (int * 'a) option
(** [find_floor t k] is the binding with the greatest key ≤ [k] — the
    lookup a VMA index needs to map an address to its containing range. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending-key traversal. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val depth : 'a t -> int
(** Current height in levels (≥ 1); proportional to descend cost. *)
