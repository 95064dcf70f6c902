(** Extended page table: guest-physical → host-physical translation.

    One EPT per process (Aquila's modification of Dune's one-per-thread,
    Section 3.5).  The hypervisor populates translations lazily on EPT
    faults; Aquila keeps faults rare by using huge mappings (1 GiB by
    default) for its DRAM-cache ranges.  The mapped frames are a growable
    bool array indexed by huge-frame number. *)

type t

val create : ?granularity_bytes:int64 -> unit -> t
(** [create ()] uses 1 GiB mappings.  Pass [2097152L] for 2 MiB pages. *)

val granularity : t -> int64

val touch : t -> Costs.t -> gpa:int64 -> int64
(** [touch t c ~gpa] ensures the huge frame containing guest-physical
    address [gpa] is mapped.  Returns 0 if it already is; otherwise models
    an EPT violation — a vmexit, host-side handling, and vmentry — maps the
    frame, and returns that cost.  Raises [Invalid_argument] if [gpa]
    lies below the first frame. *)

val unmap_range : t -> gpa:int64 -> len:int64 -> int
(** [unmap_range t ~gpa ~len] removes translations covering the range
    (hypervisor reclaim on cache downsizing).  Returns how many huge
    frames were dropped. *)

val faults : t -> int
val mapped_frames : t -> int
