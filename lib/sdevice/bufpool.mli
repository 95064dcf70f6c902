(** Free lists of staging buffers for multi-page transfers.

    A cache or store that moves several pages through one device call
    (readahead, merged write-back, an SST build) stages them in a buffer
    it owns instead of allocating one per transfer.  A transfer holds its
    buffer for as long as it runs, suspended device calls included, and
    gives it back when it returns or raises; a second transfer started
    meanwhile gets a different buffer.  There is no shared or global
    buffer: each owner keeps its own free list, so owners on different
    domains never meet.

    A buffer comes back with whatever its last holder left in it: a
    transfer that writes fewer bytes than it hands to the device must
    zero-fill the rest itself. *)

type 'a t
(** A free list of interchangeable buffers. *)

val create : (unit -> 'a) -> 'a t
(** [create fresh] is an empty free list; [fresh ()] makes a buffer when
    none is free. *)

val with_ : 'a t -> ('a -> 'b) -> 'b
(** [with_ t f] runs [f] on a free buffer (or a fresh one) and gives the
    buffer back when [f] returns or raises. *)

type pages
(** Page buffers in power-of-two size classes: class [c] holds buffers of
    [2^c] pages, so a buffer is at most twice the pages it serves. *)

val pages : unit -> pages

val with_pages : pages -> int -> (Bytes.t -> 'b) -> 'b
(** [with_pages p n f] is {!with_} on the smallest class holding [n]
    pages ([n >= 1]): [f] gets a buffer of at least [n] pages. *)
