(** The Aquila library OS: application-facing API.

    An application uses Aquila exactly as the paper describes
    (Section 4): create a context once in [main], call {!enter_thread}
    from each thread, then use {!mmap}-style regions for all storage I/O.
    Common-path operations — page faults, cache replacement, device
    access — run in non-root ring 0 at exception cost; uncommon
    operations — cache resizing, host-bound syscalls — pay vmcalls.

    All data-plane functions ({!read}, {!write}, {!touch}) must run inside
    a {!Sim.Engine} fiber; they move {e real bytes} and charge mmio costs:
    a hit costs only the (usually zero) TLB work, a miss runs the full
    fault path.  The hit and the byte-range copy are the access path
    {!Linux_sim.Mmap_sys} runs too ({!Hw.Mmu}); only the fault path is
    Aquila's own. *)

type config = {
  cache : Mcache.Dram_cache.config;
  domain : Hw.Domain_x.t;
      (** where faults are taken: [Nonroot_ring0] is Aquila; [Ring3] turns
          the same machinery into an in-kernel custom mmio path (Kreon's
          [kmmap] baseline) with ring 3 trap costs *)
}

val default_config : cache_frames:int -> config
(** Defaults: Aquila cache defaults, faults in non-root ring 0.  Every
    context maps GPA→HPA in 2 MiB EPT pages (scaled from the paper's
    1 GiB — see DESIGN.md §2), reads no readahead for normal areas and a
    32-page window for sequential ones. *)

type t
type file
type region

val create : ?costs:Hw.Costs.t -> ?machine:Hw.Machine.t -> config -> t
(** [create config] initializes the Aquila context (the call the paper
    adds to the application's [main]). *)

val costs : t -> Hw.Costs.t
val cache : t -> Mcache.Dram_cache.t

val enter_thread : t -> unit
(** [enter_thread t] switches the calling fiber into Aquila mode (the
    per-thread call the paper adds), registering its core as a TLB
    shootdown target.  Charges the vmlaunch transition. *)

val attach_file :
  t ->
  name:string ->
  access:Sdevice.Access.t ->
  translate:(int -> int option) ->
  size_pages:int ->
  file
(** [attach_file t ~name ~access ~translate ~size_pages] registers a
    file/device so regions can map it.  [translate] maps file pages to
    device pages (e.g. through a {!Blobstore.Store} blob). *)

val file_id : file -> int

val mmap : t -> file -> ?file_page0:int -> npages:int -> unit -> region
(** [mmap t f ~npages ()] maps [npages] pages of [f] starting at file page
    [file_page0] (default 0).  Intercepted in non-root ring 0: costs a
    function call plus the VMA update — no vmcall. *)

val munmap : t -> region -> unit
(** [munmap t r] removes the mapping (pages may stay cached), tearing down
    PTEs with one batched shootdown. *)

val madvise : region -> Vma.advice -> unit

val mprotect : t -> region -> writable:bool -> unit
(** [mprotect t r ~writable:false] write-protects every mapped page of the
    region (one batched shootdown); [~writable:true] restores write
    permission lazily — the next store takes a dirty-tracking fault.
    Intercepted in non-root ring 0, like the other VM calls. *)

val mremap : t -> region -> npages:int -> region
(** [mremap t r ~npages] grows (or shrinks) the mapping.  Growing remaps
    at a fresh virtual range without copying — cached pages are found
    again through the (file, page) index, so only PTE re-faults are
    paid.  The old region must no longer be used. *)

val msync : t -> region -> unit
(** [msync t r] persists the region's dirty pages (ascending offset,
    merged I/Os) and write-protects them for further dirty tracking. *)

val region_npages : region -> int

val touch : t -> region -> page:int -> write:bool -> unit
(** [touch t r ~page ~write] performs one load (or store) to the region's
    [page]-th page: free on a mapped hit, full fault path on a miss. *)

val touch_buf : t -> region -> page:int -> write:bool -> buf:Sim.Costbuf.t -> unit
(** Like {!touch}, but accumulates the (tiny) hit-path costs into [buf]
    instead of charging immediately — for data-plane loops that perform
    millions of accesses and charge in batches.  Fault costs are still
    charged inline. *)

val read : t -> region -> off:int -> len:int -> dst:Bytes.t -> unit
(** [read t r ~off ~len ~dst] copies region bytes [\[off, off+len)] into
    [dst] (starting at 0), faulting pages in as needed.  Only mmio costs
    are charged — the caller models its own compute on the data. *)

val write : ?len:int -> t -> region -> off:int -> src:Bytes.t -> unit
(** [write t r ~off ~src] stores the first [len] bytes of [src] (default
    all of them) at region offset [off], write-faulting pages (dirty
    tracking) as needed. *)

val resize_cache : t -> frames:int -> unit
(** [resize_cache t ~frames] grows or shrinks the DRAM cache to [frames]
    through the hypervisor (vmcall + EPT updates, Section 3.5). *)

(** {1 Statistics}

    Page-granular data-plane accesses (hits and faults) are counted in
    the [aquila_mem_accesses] registry family. *)

val faults : t -> int
(** Faults taken by this context, also counted in [aquila_page_faults];
    kept per context because a registry series sums every context of a
    domain. *)

val ept_faults : t -> int
