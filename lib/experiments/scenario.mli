(** Shared experiment plumbing: builds the standard system stacks the
    paper compares, on either device, with scaled sizes (DESIGN.md §2).

    Every constructor returns a fresh, independent stack (own machine,
    device, blobstore, caches) so experiment runs never share state. *)

type dev = Pmem | Nvme

val dev_name : dev -> string

val device_pages : int
(** Standard device size every stack is built over: 131072 pages
    (512 MiB, the paper's 375 GB scaled — DESIGN.md §2). *)

type aquila_stack = {
  a_ctx : Aquila.Context.t;
  a_store : Blobstore.Store.t;
  a_access : Sdevice.Access.t;
  a_machine : Hw.Machine.t;
}

val set_policy : Mcache.Policy.kind -> unit
(** Sets the ambient cache-replacement policy picked up by every
    subsequently built Aquila stack (the CLI's [--policy] knob).  Call
    before running experiments; [tweak] still overrides it. *)

val policy : unit -> Mcache.Policy.kind
(** The current ambient policy (default {!Mcache.Policy.Clock}). *)

val make_aquila :
  ?domain:Hw.Domain_x.t ->
  ?tweak:(Mcache.Dram_cache.config -> Mcache.Dram_cache.config) ->
  frames:int ->
  dev:dev ->
  unit ->
  aquila_stack
(** Aquila over DAX pmem or SPDK NVMe.  [domain = Ring3] gives the
    [kmmap] variant (kernel mmio path: ring-3 traps, host device access).
    [tweak] adjusts the cache config (ablations). *)

val make_aquila_access :
  ?domain:Hw.Domain_x.t ->
  ?frames:int ->
  access:(Hw.Costs.t -> Blobstore.Store.t option -> Sdevice.Access.t) ->
  unit ->
  aquila_stack
(** Aquila with an arbitrary access method (Figure 8(c)); the callback
    receives the costs and may ignore the store. *)

type linux_stack = {
  l_msys : Linux_sim.Mmap_sys.t;
  l_store : Blobstore.Store.t;
  l_access : Sdevice.Access.t;
  l_machine : Hw.Machine.t;
}

val make_linux :
  ?readahead:int -> frames:int -> dev:dev -> unit -> linux_stack
(** Linux mmap over the kernel page cache ([readahead] defaults to the
    kernel's 32-page fault readaround; 1 models [madvise(MADV_RANDOM)]). *)

type ucache_stack = {
  u_cache : Uspace.User_cache.t;
  u_store : Blobstore.Store.t;
  u_access : Sdevice.Access.t;
}

val make_ucache : cache_pages:int -> dev:dev -> unit -> ucache_stack
(** Direct I/O + user-space cache (RocksDB's recommended mode). *)

val kv_of_rocksdb : Kvstore.Rocksdb_sim.t -> Ycsb.Runner.kv
val kv_of_kreon : Kvstore.Kreon_sim.t -> Ycsb.Runner.kv

val scale_note : string
(** One-line reminder of the 2^10 size scaling, printed by benches. *)

val cycles_per_op : Sim.Engine.ctx list -> string list -> int -> float
(** [cycles_per_op ctxs labels ops] is the cycles the fibers [ctxs]
    charged to exactly the cost labels [labels] ({!Sim.Engine.label_get}),
    per operation of [ops] — the cells of the Figure 7 and 8 breakdowns. *)

val observe :
  ?trace:string ->
  ?csv:string ->
  ?summary:int ->
  ?buffer:int ->
  ?report:[ `Table | `Families ] ->
  ?metrics_out:string ->
  ?profile:string ->
  ?sample_period:int ->
  ?timeseries:string ->
  ?ts_period:int ->
  (unit -> 'a) ->
  'a
(** [observe f] runs [f] under the requested observers and exports their
    sinks.  With none requested [f] runs untouched; otherwise the
    (always-on) metrics registry is zeroed first.
    - Tracer ([Trace]), on when [trace], [csv] or [summary] is given,
      with [buffer] events per core ring: [trace] writes Chrome Trace
      Event JSON (load in Perfetto / chrome://tracing), [csv] a flat
      CSV, [summary] a top-N span table on stdout.
    - [report] prints the nonzero metrics as a table, [`Families] the
      registered families with their help strings first.
    - [metrics_out] writes the merged snapshot (Prometheus text for
      [.prom]/[.txt] paths, flat JSON otherwise).
    - Profiler ({!Metrics.Profile}), on when [profile] or [timeseries]
      is given: [profile] writes folded stacks for flamegraph.pl /
      speedscope sampled every [sample_period] virtual cycles (default
      10k), [timeseries] a long-form CSV of a full snapshot every
      [ts_period] virtual cycles (default 1M).

    The sinks go out in that order, after [f] returns.  If [f] raises,
    both observers are stopped and the exception is re-raised.  The
    tracer and the profiler are domain-local — callers force [--jobs 1]
    while either is on; plain counter snapshots merge across any
    fan-out. *)
