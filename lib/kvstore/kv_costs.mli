(** CPU-compute cost constants for the key-value store read/write paths.

    Charged as [User] cycles on top of the I/O costs the environment
    charges; calibrated so the composite per-operation numbers land near
    the paper's Figure 7 breakdown (RocksDB get ≈ 15–18 K cycles of
    store-side compute per point lookup). *)

val memtable_probe : int64
val memtable_insert : int64

val manifest_select : int64
(** Choosing the candidate SST within a level. *)

val bloom_probe : int64
val index_search : int64

val block_scan : int64
(** Record scan and key compares inside a data block. *)

val get_base : int64
(** Per-get fixed overhead (version refs, comparator setup). *)

val put_base : int64

val scan_next : int64
(** Per returned record during range scans, and per record a flush or a
    compaction moves through its merge. *)

val btree_node_search : int64
(** Kreon per-node binary-search compute. *)

val log_append : int64
(** Kreon log append bookkeeping. *)

val charge : string -> int64 -> unit
(** [charge label c] records [c] user-compute cycles under [label]. *)
