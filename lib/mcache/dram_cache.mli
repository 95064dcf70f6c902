(** Aquila's scalable DRAM I/O cache (Section 3.2, Figure 4).

    The cache holds 4 KiB frames of file data, indexed by a lock-free hash
    table on {!Pagekey.t}.  Misses allocate frames from the two-level
    {!Freelist}; when it runs dry the faulting thread synchronously evicts
    a batch of frames chosen by the configured replacement {!Policy}
    (CLOCK by default — the paper's LRU approximation updated on faults),
    writing dirty victims back in ascending-offset merged I/Os
    and invalidating the victims' mappings with one batched TLB shootdown.
    Dirty pages live in per-core sets costed as red-black trees
    ({!Dirty_set}), never in the hash table's critical path.

    The cache owns the process page table entries for cached pages, so the
    same component serves Aquila (non-root ring 0 costs) and Kreon's
    [kmmap] baseline (ring 0 kernel costs) — only the configured costs and
    access methods differ.

    Cost convention: non-blocking software work is {e returned} as cycles
    for the caller to charge in one batch; blocking work (device I/O,
    waiting on an in-flight fault) is charged inside. *)

type config = {
  frames : int;  (** initial cache size in frames *)
  max_frames : int;  (** capacity ceiling for dynamic resizing *)
  evict_batch : int;  (** frames reclaimed per synchronous eviction *)
  core_queue_limit : int;  (** per-core freelist cap (Section 3.2) *)
  move_batch : int;  (** freelist level-to-level move batch *)
  writeback_merge : int;  (** max pages merged into one write I/O *)
  ipi_mode : Hw.Ipi.send_mode;  (** how shootdown IPIs are sent *)
  readahead : int;  (** pages prefetched after a missing page *)
  wb_protect : bool;
      (** write-protect PTEs after write-back (default true).  [false] is
          a {e deliberately broken} variant kept for the crash-consistency
          checker: stores after an msync no longer re-dirty their pages,
          so later msyncs silently miss them — [aquila_cli faultcheck]
          must catch the resulting durability violation. *)
  policy : Policy.kind;
      (** replacement policy (default {!Policy.Clock}); see {!Policy} for
          the five implementations and their cycle costs *)
}

val default_config : frames:int -> config
(** Paper-flavoured defaults scaled to the simulation (see DESIGN.md §2):
    eviction batch = frames/64, but at least {!Hw.Ipi.full_flush_above} +
    1 so that every batch is one full TLB flush per core, as in the
    paper; core queues 512, move batch 256, merge 64, vmexit-send IPIs,
    no readahead, write-protect on, CLOCK replacement. *)

type t

val create :
  costs:Hw.Costs.t ->
  machine:Hw.Machine.t ->
  page_table:Hw.Page_table.t ->
  config ->
  t

val config : t -> config
val frames_total : t -> int
val free_frames : t -> int

val register_file :
  t -> file_id:int -> access:Sdevice.Access.t -> translate:(int -> int option) -> unit
(** [register_file t ~file_id ~access ~translate] teaches the cache how to
    reach file [file_id]'s pages: [translate] maps a file page to a device
    page ([None] past end-of-file) and [access] moves the data. *)

val set_shoot_cores : t -> int list -> unit
(** Cores running threads of this process — the TLB shootdown targets. *)

val fault :
  t -> ?readahead:int -> core:int -> key:Pagekey.t -> vpn:int -> write:bool -> unit -> unit
(** [fault t ~core ~key ~vpn ~write ()] services a page fault for virtual
    page [vpn] backed by [key]: looks up the cache, allocates/evicts/reads
    as needed, installs the PTE (read-only on read faults, for dirty
    tracking), and marks dirty pages.  [readahead] overrides the
    configured window (madvise-driven policy).  Must run inside a fiber;
    charges
    all software costs with per-label attribution ("index", "alloc",
    "evict", "tlb", "map", "writeback" plus the I/O labels).

    Failure semantics under an active {!Fault} plan: an unrecoverable
    device read (after the access layer's retries) raises {!Fault.Sigbus}
    — mirroring the SIGBUS a real mmap delivers on a media error — after
    releasing the frame and waking piggybacked faulters.  A write fault
    on a cache degraded to read-only (see {!degraded}) raises
    {!Fault.Read_only}. *)

val pfn_data : t -> int -> Bytes.t
(** [pfn_data t pfn] is the data of cache frame [pfn] (the data plane:
    loads/stores hit this after translation). *)

val forget_mapping : t -> pfn:int -> unit
(** [forget_mapping t ~pfn] clears the frame's reverse mapping after the
    caller tore down the PTE itself (munmap of a region whose pages stay
    cached). *)

val is_resident : t -> key:Pagekey.t -> bool

val msync : t -> core:int -> ?file:int -> unit -> unit
(** [msync t ~core ()] writes back all dirty pages (optionally one file's)
    in ascending offset order with merged I/Os, write-protects their PTEs
    again (so future writes re-mark them dirty), and issues one batched
    shootdown.  Charges its costs; must run inside a fiber.

    A clean cache (empty dirty set) returns immediately without draining,
    protecting or issuing any device write.  If a write-back still fails
    after retries, the failed pages {e stay dirty and resident} and
    {!Fault.Io_error} is raised — the msync must not be taken as an
    acknowledgement (real msync returns EIO). *)

val spawn_writeback_daemon :
  t -> eng:Sim.Engine.t -> ?hi:int -> ?lo:int -> ?core:int -> unit -> unit
(** [spawn_writeback_daemon t ~eng ()] starts a background cleaner fiber:
    when the dirty-page count exceeds [hi] (default 256) it writes pages
    back — ascending offset, merged — until it falls to [lo] (default 64).
    This is the lazy write-back strategy the paper contrasts with Linux's
    aggressive flusher (Section 7.2); with it, foreground evictions mostly
    find clean victims.  Raises [Invalid_argument] if already running. *)

val stop_writeback_daemon : t -> unit
(** Stops the daemon after its current round (idempotent). *)

val drop_file : t -> core:int -> file_id:int -> unit
(** [drop_file t ~core ~file_id] removes every cached page of the file
    (munmap of the last mapping): write-back dirty pages, unmap, free.
    Charges its costs; must run inside a fiber. *)

val crash : t -> unit
(** Failure injection: simulate power loss — drop every cached frame
    (including dirty ones) and all translations without write-back.  Only
    data that reached the devices (via {!msync} or write-back) survives. *)

val grow : t -> frames:int -> int
(** [grow t ~frames] adds up to [frames] frames (bounded by [max_frames]);
    returns how many were added. *)

val shrink : t -> frames:int -> int
(** [shrink t ~frames] retires up to [frames] frames, evicting if needed.
    Must run inside a fiber (eviction may write back).  Returns how many
    were retired. *)

(** {1 Statistics} *)

val fault_hits : t -> int
(** Faults satisfied by a page already in the cache. *)

val misses : t -> int
val evictions : t -> int
val writeback_ios : t -> int
val writeback_pages : t -> int
val read_ios : t -> int
val read_pages : t -> int
val inflight_waits : t -> int
val dirty_pages : t -> int

val wb_errors : t -> int
(** Pages whose write-back failed after retries (each kept dirty). *)

val sigbus_count : t -> int
(** Unrecoverable read errors delivered as {!Fault.Sigbus}. *)

val degraded : t -> bool
(** [true] once an error storm ({!wb_errors} on consecutive rounds)
    switched the cache to read-only: write faults raise
    {!Fault.Read_only} while reads keep being served, and evictions skip
    dirty victims (their write-back is known to be failing; dropping them
    would lose data).  {!crash} (a restart) resets it. *)
