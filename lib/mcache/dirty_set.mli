(** Per-core dirty-page sets, sorted by device offset.

    Aquila keeps dirty pages out of the lookup hash table, in one
    red-black tree per core, so that (a) marking a page dirty never
    contends on a shared lock and (b) write-back can drain pages in
    ascending offset order and merge adjacent ones into large I/Os
    (Section 3.2).  Each core's set is an ordered map costed as a
    red-black tree: an operation returns [rb_op] per level of a balanced
    tree of the core's size before it ({!Hw.Costs.rb_depth}). *)

type t

val create : Hw.Costs.t -> cores:int -> t

val add : t -> core:int -> key:Pagekey.t -> frame:int -> int64
(** [add t ~core ~key ~frame] records [key] (backed by cache frame
    [frame]) as dirty in [core]'s set.  Idempotent per (core, key). *)

val remove : t -> core:int -> key:Pagekey.t -> int64
(** [remove t ~core ~key] forgets the entry (page cleaned or dropped). *)

val total : t -> int

val drain_sorted : t -> ?file:int -> ?limit:int -> unit -> (Pagekey.t * int) list * int64
(** [drain_sorted t ()] removes dirty entries from {e all} core sets and
    returns them merged in ascending key order, with the cost of one
    removal per entry at its core's size before it.  [file] restricts to
    one file's pages; [limit] takes only that many entries (smallest keys
    first) and leaves the rest where they are. *)
