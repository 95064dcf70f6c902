(** Linux kernel page cache model (the baseline Aquila replaces).

    Mirrors the 4.14-era design the paper profiles (Section 6.5): a radix
    tree per file whose {e insertions, removals and dirty tagging} are
    serialized by a single per-file [tree_lock]; a global LRU guarded by
    [lru_lock]; a global free list behind the zone lock; direct reclaim by
    the faulting thread in batches of 32 with kernel-IPI TLB shootdowns;
    and fault-time readahead.  Lookups are lock-free (RCU), as in Linux —
    the contention the paper measures comes from the update paths, which
    every miss and every eviction exercises.

    All devices are reached from kernel context ([In_kernel] entry —
    block layer plus device, no syscall). *)

type config = {
  frames : int;
  readahead : int;  (** pages read around a miss; Linux defaults to 32 (128 KiB) *)
}

val default_config : frames:int -> config

type t

val create :
  costs:Hw.Costs.t ->
  machine:Hw.Machine.t ->
  page_table:Hw.Page_table.t ->
  config ->
  t

val register_file :
  t -> file_id:int -> access:Sdevice.Access.t -> translate:(int -> int option) -> unit

val set_shoot_cores : t -> int list -> unit

val fault : t -> core:int -> key:Mcache.Pagekey.t -> vpn:int -> write:bool -> unit
(** Kernel fault service for [vpn] backed by [key] (the caller charges the
    ring-3 trap and VMA walk): page-cache lookup, miss handling with
    readahead, PTE installation, dirty tagging under [tree_lock].  Must
    run inside a fiber. *)

val buffered_read : t -> core:int -> key:Mcache.Pagekey.t -> int
(** [buffered_read t ~core ~key] is the page-cache half of a buffered
    [read] syscall for one page: lookup or fill, plus the copy-to-user
    cost.  Returns the pfn holding the data.  The caller charges the
    syscall entry. *)

val set_dirty_key : t -> key:Mcache.Pagekey.t -> unit
(** [set_dirty_key t ~key] tags a resident page dirty under its file's
    [tree_lock] (buffered-write path).  No-op if not resident. *)

val pfn_data : t -> int -> Bytes.t
val is_resident : t -> key:Mcache.Pagekey.t -> bool

val msync_file : t -> core:int -> file_id:int -> unit
(** Write back the file's dirty pages (merged, ascending offset). *)

val drop_file : t -> core:int -> file_id:int -> unit

val spawn_flusher : t -> eng:Sim.Engine.t -> ?hi:int -> ?lo:int -> ?core:int -> unit -> unit
(** [spawn_flusher t ~eng ()] starts the kernel's background write-back
    daemon: past [hi] dirty pages (default 256) it writes batches back —
    clearing dirty tags under each file's [tree_lock], contending with
    foreground faults — until below [lo] (default 64).  Models the
    aggressive write-back behaviour the paper contrasts with Aquila's
    lazy strategy. *)

val stop_flusher : t -> unit

(** {1 Statistics}

    Hits, misses, write-back I/Os and faults delivered as
    {!Fault.Sigbus} are counted in the [linux_cache_hits],
    [linux_cache_misses], [linux_cache_wb_ios] and [linux_cache_sigbus]
    registry families; a wait on a [tree_lock] is the waiter's blocked
    time. *)

val evictions : t -> int
(** Frames reclaimed, also counted in [linux_cache_evictions]; kept per
    cache because a registry series sums every cache of a domain. *)

val dirty_pages : t -> int
