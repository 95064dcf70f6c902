(** RocksDB-style persistent LSM key-value store (scaled v6.8 model).

    The structure the paper evaluates: a memtable + WAL in front of
    leveled SSTs ({!Sst}) on the storage device, with bloom filters and
    block indexes read through the pluggable {!Env} — so the identical
    store runs over explicit I/O + user cache, Linux [mmap], or Aquila,
    reproducing the Figure 5/7 comparisons.

    Writes go to the WAL and memtable; flushes build L0 SSTs; L0 overflow
    triggers leveled compaction.  All sizes are scaled by 2^10 from the
    paper's setup (64 MB SSTs → 64 KB, etc.); ratios are preserved.

    Flushes and compactions run on two daemon fibers, as RocksDB 6.8's
    default [max_background_jobs = 2] runs one flush job and one
    compaction job.  The store spawns them, on the calling fiber's engine
    and core, the first time a memtable fills (or {!flush} has work), and
    must then stay on that engine; a store that is only read never starts
    them.  Their work is charged to them under ["kv_flush"] and
    ["kv_compact"], never to a writer.

    Every get, scan and iterator pins the version of the levels it reads,
    as RocksDB's SuperVersion refcount does: an SST a compaction replaces
    is deleted, by the compactor, only once no pinned version lists it.
    A failed compaction keeps its inputs and is retried when a flush, a
    stalled writer or a released version next asks the compactor for
    work. *)

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
(** Insert or update.  WAL append + memtable.  A put that finds the
    memtable full moves it to the immutable slot and wakes the flusher;
    it stalls only while the previous immutable memtable is still being
    flushed ([max_write_buffer_number = 2]) or while L0 holds 36 files
    ([level0_stop_writes_trigger]) and is the compactor's next level.  Must run inside a fiber.  Raises
    [Invalid_argument] for a record the SST format cannot hold (see
    {!Sst.check_record}), and the device error of a failed background
    flush or compaction it stalled on. *)

val get : t -> string -> string option
val scan : t -> start:string -> n:int -> (string * string) list
(** Up to [n] records with key ≥ [start], ascending, merged across the
    memtable and all levels. *)

val with_iterator : t -> start:string -> (Kv_iter.t -> 'a) -> 'a
(** [with_iterator t ~start f] applies [f] to a streaming merge iterator
    from [start] — RocksDB's range-scan machinery: newest sources shadow
    older ones; SST blocks are read lazily through the environment.  The
    iterator's version stays pinned until [f] returns or raises, however
    far [f] reads; the iterator must not be used after that. *)

val bulk_load : t -> (string * string) list -> unit
(** [bulk_load t records] builds bottom-level SSTs directly from
    ascending-key, duplicate-free [records] (the YCSB load phase).  Every
    record is checked with {!Sst.check_record} before anything is
    written. *)

val flush : t -> unit
(** Force the memtable to an L0 SST and wait for the flusher to write
    it (compaction stays in the background).  If the flush fails (a
    device error), the SSTs it built are deleted, the exception is raised
    here with the write lock released, and the memtable is kept for the
    next flush. *)

val sst_count : t -> int
val level_sizes : t -> int list
(** SST count per level, L0 first. *)

val daemons : t -> Sim.Engine.ctx list
(** The flusher's and the compactor's fibers, once started; [[]]
    before. *)

val compactions : t -> int
(** Compactions installed so far. *)

val record_count : t -> int
(** Records across memtable and SSTs (an upper bound under updates, which
    may shadow older versions until compaction). *)
