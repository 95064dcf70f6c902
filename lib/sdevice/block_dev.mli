(** Queueing model for block storage devices.

    A device has a number of parallel channels (its internal queue/NAND
    parallelism), a per-request setup latency, and a per-byte transfer
    cost per channel.  Requests admit FIFO onto a free channel and occupy
    it for [setup + len * per_byte] cycles, which yields the device's
    latency, IOPS and bandwidth envelope simultaneously.

    Time spent waiting for the device is charged to the calling fiber as
    idle time by default, or as [Sys] CPU time when [polling] (SPDK-style
    completion polling burns the CPU).  Queueing for a channel is the
    waiter's blocked time either way.  Completed I/Os, injected errors
    and latency spikes are counted in the [sdevice_reads],
    [sdevice_writes], [sdevice_errors] and [sdevice_spikes] registry
    families, one series per device name. *)

type t

val create :
  ?queues:int ->
  name:string ->
  channels:int ->
  setup_cycles:int64 ->
  cycles_per_byte:float ->
  capacity_bytes:int64 ->
  unit ->
  t
(** [queues] (default 1) is the number of submission queues; a request
    submits on SQ [core mod queues] (per-core SQs as in NVMe), so
    submission never serializes across cores — only channel occupancy
    does.  Purely an accounting split ({!queue_submissions}): the
    channel queueing model is unchanged, so timing is identical at any
    queue count. *)

val name : t -> string
val store : t -> Pagestore.t
val capacity_bytes : t -> int64

val setup_cycles : t -> int64
(** [setup_cycles t] is the per-request fixed cost passed at {!create} —
    the floor on this device's completion latency.  Shard-per-device
    PDES runs use it as a lookahead bound when a device is the only
    channel between two shards (see [Hw.Costs.min_cross_shard_latency]). *)

val service_time : t -> len:int -> int64
(** [service_time t ~len] is the channel occupancy for one request,
    excluding queueing. *)

val read : ?polling:bool -> t -> addr:int64 -> len:int -> dst:Bytes.t -> dst_off:int -> unit
(** [read t ~addr ~len ~dst ~dst_off] performs a blocking device read:
    queues for a channel, waits the service time, then materializes the
    data from the backing store.  Must run inside a fiber.  Raises
    {!Fault.Io_error} when the active fault plan fails the I/O. *)

val write : ?polling:bool -> t -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int -> unit

val read_result :
  ?polling:bool -> t -> addr:int64 -> len:int -> dst:Bytes.t -> dst_off:int ->
  (unit, Fault.error) result
(** Like {!read} but reports injected failures as [Error] instead of
    raising.  The channel occupancy (and any injected latency spike) is
    charged either way — the device took the time before reporting the
    error. *)

val write_result :
  ?polling:bool -> t -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int ->
  (unit, Fault.error) result
(** Like {!write} as a [result].  Store bytes are only mutated after the
    service time completes, so writes are all-or-nothing under a crash;
    a torn-write injection persists a page-aligned prefix of the span
    and reports [Error Transient]. *)

val queues : t -> int

val queue_submissions : t -> int array
(** Per-submission-queue request counts ([queues] entries; sums to
    the device's completed and failed I/Os).  The load-balance picture for
    shard-partitioned drivers: balanced SQs mean the device sees the
    paper's per-core submission pattern rather than one hot queue. *)
