(** Hierarchical two-level free-frame allocator (Section 3.2).

    Level 1 is a queue per NUMA node; level 2 a queue per core.  A core
    allocates from its own queue, falls back to its node's queue, then to
    remote nodes' queues, refilling in batches.  Frees go to the core
    queue and overflow to the node queue in batches.  Queues are lock-free
    in the modelled system, so operations never block; they return the
    cycle cost to charge. *)

type t

val create :
  Hw.Costs.t ->
  Hw.Topology.t ->
  ?core_queue_limit:int ->
  ?move_batch:int ->
  unit ->
  t
(** [create costs topo ()] is an empty freelist.  [core_queue_limit]
    (default 512) caps per-core queues; [move_batch] (default 256) is the
    number of frames moved between levels at once. *)

val add_frame : t -> node:int -> int -> unit
(** [add_frame t ~node f] seeds frame [f] into node [node]'s queue
    (initial population and cache growth). *)

val alloc : t -> core:int -> int option * int64
(** [alloc t ~core] pops a frame preferring locality.  Returns
    [(None, cost)] when every queue is empty — the caller must evict. *)

val free : t -> core:int -> int -> int64
(** [free t ~core f] returns [f] to the core's queue, spilling a batch to
    the node queue past the limit.  Returns the cycle cost. *)

val steal_any : t -> int option
(** [steal_any t] removes an arbitrary free frame (used when shrinking the
    cache); no cost model, administrative path only. *)

val free_count : t -> int
