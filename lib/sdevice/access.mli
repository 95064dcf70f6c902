(** Storage access methods (Section 3.3 / Figure 8(c) of the paper).

    An access method bundles {e how} a page of file/device data moves
    between the DRAM cache and storage, together with all the software
    costs on that path:

    - [Dax_pmem]: AVX2 streaming [memcpy] against DAX-mapped NVM, executed
      directly in non-root ring 0.  No kernel, no queueing.
    - [Spdk_nvme]: SPDK user-space driver submitting directly to the NVMe
      device from non-root ring 0, polling for completion.
    - [Host_pmem] / [Host_nvme]: direct-I/O requests served by the host
      kernel (block layer + device), reached through a configurable entry
      cost — a syscall from ring 3, a vmcall from non-root ring 0, or free
      when the caller is already the kernel (the Linux fault path).

    Reads and writes operate on runs of contiguous device pages so callers
    can batch (readahead, sorted write-back). *)

type entry =
  | From_user  (** syscall entry from ring 3 *)
  | From_guest  (** vmcall from non-root ring 0 to the host *)
  | In_kernel  (** caller already runs in host ring 0 *)

type t

val name : t -> string

val dax_pmem : Hw.Costs.t -> ?simd:bool -> Pmem.t -> t
(** [dax_pmem c p] accesses [p] by CPU copies; [simd] (default true)
    selects the AVX2 streaming path with its FPU save/restore. *)

val spdk_nvme : Hw.Costs.t -> Block_dev.t -> t
(** Direct user-space NVMe access, polling completions (CPU-busy). *)

val host_pmem : Hw.Costs.t -> entry:entry -> Pmem.t -> t
(** Direct I/O to the pmem block device through the host kernel. *)

val host_nvme : Hw.Costs.t -> entry:entry -> Block_dev.t -> t
(** Direct I/O to the NVMe device through the host kernel (interrupt
    completion and scheduler wakeup). *)

val uring_nvme : Hw.Costs.t -> entry:entry -> Block_dev.t -> t
(** io_uring-style asynchronous kernel I/O (Section 3.3 lists it as an
    alternative device-access method; evaluating it is the paper's future
    work).  The submission syscall is amortized over a batch of queued
    SQEs and completions are reaped from shared memory without entering
    the kernel, so the software cost per request is far below
    {!host_nvme}'s — at the price of queueing latency in real systems. *)

val read_pages : t -> page:int -> count:int -> dst:Bytes.t -> unit
(** [read_pages a ~page ~count ~dst] reads device pages
    [page .. page+count-1] into [dst] (which must hold [count] pages),
    charging every cost on the method's path.  Must run inside a fiber.

    Under an active {!Fault} plan, transient device failures are retried
    up to 5 times with exponential virtual-time backoff (20k cycles
    doubling per attempt, idle cycles under the "io_retry" label);
    permanent failures and exhausted retries raise {!Fault.Io_error}. *)

val write_pages : t -> page:int -> count:int -> src:Bytes.t -> unit

val read_pages_result :
  t -> page:int -> count:int -> dst:Bytes.t -> (unit, Fault.error) result
(** Like {!read_pages} (including the retry policy) but reports the
    final failure as [Error] — for callers with their own degradation
    path (the cache's write-back keeps failed pages dirty instead of
    unwinding). *)

val write_pages_result :
  t -> page:int -> count:int -> src:Bytes.t -> (unit, Fault.error) result

val read_page : t -> page:int -> dst:Bytes.t -> unit
val write_page : t -> page:int -> src:Bytes.t -> unit

val write_merged :
  Bufpool.pages ->
  merge:int ->
  cat:string ->
  key:('a -> int) ->
  file:('a -> int) ->
  dev:('a -> int option) ->
  access:(int -> t) ->
  data:('a -> Bytes.t) ->
  written:(int -> unit) ->
  'a list ->
  ('a * Fault.error) list
(** [write_merged staging ~merge ~cat ~key ~file ~dev ~access ~data
    ~written items] is the write-back both page caches use.  It sorts
    [items] by [key], skips those whose [dev] (device page) is [None],
    and splits the rest into runs of at most [merge] device-contiguous
    pages of one [file].  Every run's [data] pages are staged in a
    [staging] buffer of its own before the first write, then each run is
    written to [access file] by {!write_pages_result}; [written count]
    follows every run that reached the device.  Returns the items of the failed runs with their final
    error, in key order.  Suspends; a non-empty call is one "writeback"
    span of category [cat]. *)
