(** Pluggable storage environment for the key-value stores.

    A store is written once against this interface and runs unchanged on
    each I/O configuration the paper compares (its Figure 1):

    - {!direct_ucache}: explicit direct-I/O [pread]/[pwrite] through a
      user-space block cache (RocksDB's recommended mode);
    - {!linux_mmap}: shared file mappings through the Linux kernel page
      cache;
    - {!aquila}: Aquila mmio regions (and, with a ring-3 configured
      context, Kreon's [kmmap] path).

    Files are allocated as blobs on a shared {!Blobstore.Store}, so every
    environment sees the same device-page layout. *)

type file

type t

val name : t -> string

val staging : t -> Sdevice.Bufpool.pages
(** The environment's free list of staging buffers: what moves through it
    in multi-page pieces (an SST build, a compaction scan, a direct-I/O
    request) is staged in buffers taken from here. *)

val create_file : t -> name:string -> size_pages:int -> file
(** [create_file t ~name ~size_pages] allocates a fixed-size file. *)

val read : file -> off:int -> len:int -> dst:Bytes.t -> unit
(** Reads real data; charges the environment's full access path.  Must run
    inside a fiber. *)

val write : file -> off:int -> len:int -> src:Bytes.t -> unit
(** [write f ~off ~len ~src] writes the first [len] bytes of [src] at file
    byte [off]. *)

val sync : file -> unit
val delete : file -> unit
val size_pages : file -> int

val direct_ucache :
  store:Blobstore.Store.t ->
  device_access:Sdevice.Access.t ->
  ucache:Uspace.User_cache.t ->
  t
(** Explicit I/O: [device_access] should use a host entry ([From_user])
    so each miss pays the syscall. *)

val linux_mmap : store:Blobstore.Store.t -> msys:Linux_sim.Mmap_sys.t -> device_access:Sdevice.Access.t -> t
(** Files are mmapped whole at creation; reads/writes are loads/stores. *)

val aquila : store:Blobstore.Store.t -> ctx:Aquila.Context.t -> device_access:Sdevice.Access.t -> t
(** Same, through an Aquila (or kmmap-configured) context. *)
