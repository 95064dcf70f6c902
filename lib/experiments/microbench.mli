(** The paper's custom mmio microbenchmark (Section 5): a configurable
    number of threads issuing loads/stores at random offsets of a
    memory-mapped file, with every access potentially faulting.  Drives
    Figures 8(a), 8(b) and 10. *)

type sys = Aq of Scenario.aquila_stack | Lx of Scenario.linux_stack

type result = {
  ops : int;
  elapsed_cycles : int64;
  throughput_ops_s : float;
  latency : Stats.Histogram.t;
  ctxs : Sim.Engine.ctx list;  (** worker accounting (Figure 8) *)
  faults : int;
  evictions : int;
}

type pattern =
  | Uniform  (** random pages with replacement (steady-state misses) *)
  | Permutation
      (** every page exactly once in random order — each access faults, as
          the paper's microbenchmark ensures; with a shared file the page
          range is partitioned across threads *)
  | Zipf
      (** YCSB's scrambled-Zipfian (θ = 0.99) over the file's pages: a
          skewed hot set, so replacement quality — not raw miss cost —
          decides the hit rate (the policy-ablation workload) *)

val run :
  eng:Sim.Engine.t ->
  sys:sys ->
  file_pages:int ->
  shared:bool ->
  threads:int ->
  ops_per_thread:int ->
  ?write_fraction:float ->
  ?pattern:pattern ->
  ?seed:int ->
  unit ->
  result
(** [run ~eng ~sys ~file_pages ~shared ~threads ~ops_per_thread ()] maps
    either one shared file of [file_pages] pages or one such file per
    thread, then performs random page touches ([pattern] defaults to
    [Uniform]; [Permutation] caps [ops_per_thread] at the per-thread page
    share).  Must be given a fresh engine and stack. *)

(** {1 Building blocks for custom microbenchmarks (Figure 8(c))} *)

type region_ops = {
  touch : page:int -> write:bool -> unit;
      (** one load or store to the region's [page]-th page, charged at once *)
  touch_buf : page:int -> write:bool -> buf:Sim.Costbuf.t -> unit;
      (** the same access with its hit-path costs added to [buf] (the
          stack's [touch_buf]), for loops that charge in batches *)
}

val make_region : sys -> name:string -> pages:int -> region_ops
(** Allocate, attach and map a file of [pages] pages on the stack (one
    blob, translated by {!Blobstore.Store.translate}); fiber-only. *)

val enter : sys -> unit
(** Per-thread entry ({!Aquila.Context.enter_thread} or the Linux
    equivalent); fiber-only. *)
