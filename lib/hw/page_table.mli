(** Guest page table: virtual page number → physical frame mappings.

    One instance is shared by all threads of a simulated process, as in
    Linux and in Aquila (Section 3.4: a single page table, not RadixVM's
    per-core tables).  Costs are charged by callers via {!Costs.t}.

    Each vpn has one PTE word in a flat array that grows to the highest
    mapped vpn: the frame number above the present, writable and dirty
    bits.  Callers read and set the bits through the table, so a
    lookup neither probes nor allocates. *)

type t

val create : unit -> t

val no_frame : int
(** The frame number an absent (or, for {!walk}, refused) translation
    reads as. *)

val map : t -> vpn:int -> pfn:int -> writable:bool -> unit
(** [map t ~vpn ~pfn ~writable] installs or replaces the translation,
    with the dirty bit clear.  Raises [Invalid_argument] on a negative
    [vpn] or [pfn]. *)

val unmap : t -> vpn:int -> int
(** [unmap t ~vpn] removes the translation and returns its frame, or
    {!no_frame} if there was none. *)

val pfn : t -> vpn:int -> int
(** The mapped frame, or {!no_frame}. *)

val writable : t -> vpn:int -> bool
(** Write permission (read faults map read-only); [false] if unmapped. *)

val dirty : t -> vpn:int -> bool
(** The hardware dirty bit; [false] if unmapped. *)

val mapped : t -> int
(** Number of live translations, counted by a pass over the table. *)

val set_writable : t -> vpn:int -> bool -> unit
(** [set_writable t ~vpn w] toggles write permission (write-protect /
    dirty-tracking upgrade).  No effect if [vpn] is unmapped. *)

val set_dirty : t -> vpn:int -> unit
(** Sets the dirty bit, as a store does.  No effect if unmapped. *)

val walk : t -> vpn:int -> write:bool -> int
(** [walk t ~vpn ~write] is the permission check of a load
    ([write = false]) or store: the mapped frame, with the dirty bit set
    for a store, or {!no_frame} if the page is unmapped or, for a store,
    read-only. *)
