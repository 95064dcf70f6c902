(** User-space block cache over direct I/O — the baseline in Figures 1(b),
    5 and 7.

    A sharded LRU cache of 4 KiB blocks in user memory (RocksDB's block
    cache): hits avoid syscalls but still pay a software lookup on {e
    every} access — hashing, LRU maintenance, reference counting — which
    is exactly the overhead mmio removes.  Misses evict a victim and issue
    a direct-I/O [pread] through the kernel.

    Per-operation software costs are charged as {!Sim.Engine.User} cycles
    under the ["ucache"] label; I/O costs come from the underlying
    {!Linux_sim.Readwrite} fd. *)

type config = {
  capacity_pages : int;
  shards : int;  (** RocksDB's LRUCache defaults to 2^6 shards; we use 16 *)
  lookup_cost : int64;
      (** hash probe + LRU list update + handle ref-count per lookup *)
  insert_cost : int64;  (** allocation + insertion + eviction bookkeeping *)
}

val default_config : capacity_pages:int -> config
(** Costs calibrated so RocksDB-style multi-block gets land near the 32 K
    cycles/op user-cache management the paper measures (Figure 7). *)

type t

val create : config -> t

val register_file : t -> file_id:int -> fd:Linux_sim.Readwrite.fd -> unit

val read : t -> file_id:int -> off:int -> len:int -> dst:Bytes.t -> unit
(** [read t ~file_id ~off ~len ~dst] copies file bytes through the cache,
    filling missing blocks with direct reads.  Must run inside a fiber. *)

val write : ?len:int -> t -> file_id:int -> off:int -> src:Bytes.t -> unit
(** Write-through of the first [len] bytes of [src] (default all of
    them): updates cached blocks and issues a direct [pwrite] ([off] and
    [len] must be page-aligned, as O_DIRECT requires). *)

val invalidate_file : t -> file_id:int -> unit

val hits : t -> int
val misses : t -> int
val resident : t -> int
