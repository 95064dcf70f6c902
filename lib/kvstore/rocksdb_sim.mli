(** RocksDB-style persistent LSM key-value store (scaled v6.8 model).

    The structure the paper evaluates: a memtable + WAL in front of
    leveled SSTs ({!Sst}) on the storage device, with bloom filters and
    block indexes read through the pluggable {!Env} — so the identical
    store runs over explicit I/O + user cache, Linux [mmap], or Aquila,
    reproducing the Figure 5/7 comparisons.

    Writes go to the WAL and memtable; flushes build L0 SSTs; L0 overflow
    triggers leveled compaction.  All sizes are scaled by 2^10 from the
    paper's setup (64 MB SSTs → 64 KB, etc.); ratios are preserved. *)

type config = {
  sst_pages : int;  (** target SST size in pages (default 64 = 256 KiB) *)
  memtable_limit_bytes : int;  (** flush threshold (default 256 KiB) *)
  l0_limit : int;  (** L0 file count triggering compaction (4) *)
  level_ratio : int;  (** size ratio between levels (10) *)
  nlevels : int;  (** number of on-device levels including L0 (4) *)
}

val default_config : config

type t

val create : Env.t -> ?config:config -> unit -> t

val put : t -> string -> string -> unit
(** Insert or update.  WAL append + memtable; may trigger a synchronous
    flush/compaction.  Must run inside a fiber.  Raises
    [Invalid_argument] for a record the SST format cannot hold (see
    {!Sst.check_record}). *)

val get : t -> string -> string option
val scan : t -> start:string -> n:int -> (string * string) list
(** Up to [n] records with key ≥ [start], ascending, merged across the
    memtable and all levels. *)

val iterator : t -> start:string -> Kv_iter.t
(** Streaming merge iterator from [start] — RocksDB's range-scan
    machinery: newest sources shadow older ones; SST blocks are read
    lazily through the environment. *)

val bulk_load : t -> (string * string) list -> unit
(** [bulk_load t records] builds bottom-level SSTs directly from
    ascending-key, duplicate-free [records] (the YCSB load phase).  Every
    record is checked with {!Sst.check_record} before anything is
    written. *)

val flush : t -> unit
(** Force the memtable to an L0 SST.  If building it raises (a device
    error), the exception propagates with the write lock released and
    the memtable kept for the next flush. *)

val sst_count : t -> int
val level_sizes : t -> int list
(** SST count per level, L0 first. *)

val record_count : t -> int
(** Records across memtable and SSTs (an upper bound under updates, which
    may shadow older versions until compaction). *)
