(** Explicit [read]/[write] syscall I/O (the user-space-cache baseline's
    device path).

    Direct I/O only, as in the paper's RocksDB read/write configuration:
    [O_DIRECT] — a syscall plus the kernel block layer plus the device,
    bypassing the page cache — underneath RocksDB's user-space cache. *)

type fd

val open_direct :
  access:Sdevice.Access.t ->
  translate:(int -> int option) ->
  size_pages:int ->
  staging:Sdevice.Bufpool.pages ->
  fd
(** [open_direct ~access ~translate ~size_pages ~staging] wraps a
    file for direct I/O.  [access] should be a host path ([From_user]
    entry) so the syscall cost is charged per request.  Each request
    stages its pages in a buffer from [staging], the free list of
    whoever opened the file. *)

val size_pages : fd -> int

val pread : fd -> off:int -> len:int -> dst:Bytes.t -> unit
(** [pread fd ~off ~len ~dst] reads file bytes [\[off, off+len)], rounded
    to page-aligned device requests as [O_DIRECT] requires.  Must run
    inside a fiber. *)

val pwrite : ?len:int -> fd -> off:int -> src:Bytes.t -> unit
(** [pwrite fd ~off ~src] writes the first [len] bytes of [src] (default
    all of them) at file byte [off]. *)

val reads : fd -> int
val writes : fd -> int
