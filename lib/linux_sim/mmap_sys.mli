(** Linux [mmap] mmio path (the paper's primary baseline).

    Same application surface as {!Aquila.Context} so workloads can run on
    either system unchanged: shared file-backed mappings, page-granular
    loads/stores with real data, [msync]/[munmap].  A mapped hit is the
    same hardware in both, so both run one access path ({!Hw.Mmu}: IRQ
    drain, TLB lookup, page-table permission check, byte-range copy) and
    differ only where the paper says they do, in the fault path: faults
    trap from ring 3 into the kernel (1287 cycles), walk the VMA tree
    under [mmap_sem], and go through the shared {!Page_cache} with its
    [tree_lock]/[lru_lock] serialization and 128 KiB fault readahead. *)

type config = { cache : Page_cache.config }

val default_config : cache_frames:int -> config

type t
type file
type region

val create : ?costs:Hw.Costs.t -> ?machine:Hw.Machine.t -> config -> t

val costs : t -> Hw.Costs.t
val page_cache : t -> Page_cache.t

val enter_thread : t -> unit
(** Registers the calling fiber's core as a shootdown target (thread
    creation); no domain change — the process stays in ring 3. *)

val attach_file :
  t ->
  name:string ->
  access:Sdevice.Access.t ->
  translate:(int -> int option) ->
  size_pages:int ->
  file

val file_id : file -> int

val mmap : t -> file -> ?file_page0:int -> npages:int -> unit -> region
(** A real [mmap] syscall: ring 3 → kernel, [mmap_sem] write, VMA insert. *)

val munmap : t -> region -> unit
val msync : t -> region -> unit
val region_npages : region -> int

val touch : t -> region -> page:int -> write:bool -> unit

val touch_buf : t -> region -> page:int -> write:bool -> buf:Sim.Costbuf.t -> unit
(** Batched-charging variant of {!touch} (see {!Aquila.Context.touch_buf}). *)

val read : t -> region -> off:int -> len:int -> dst:Bytes.t -> unit
val write : ?len:int -> t -> region -> off:int -> src:Bytes.t -> unit
(** [write t r ~off ~src] stores the first [len] bytes of [src] (default
    all of them) at region offset [off]. *)

val faults : t -> int
