(** Heap surface: where Ligra's arrays live.

    The paper's Ligra experiment converts every [malloc]/[free] into an
    allocation over a memory-mapped file on fast storage (Section 6.2).
    A surface is either plain DRAM (the in-memory baseline — data-plane
    accesses cost nothing beyond the algorithm's own compute) or a mapped
    region, where each page-granular access runs through one page-touch
    function: a region of either mmap stack (Aquila or Linux), which both
    reach their pages through one access path ({!Hw.Mmu}).  The surface
    itself depends on neither stack.

    The arrays themselves hold {e real values} in OCaml memory; the
    surface charges the memory-system cost of each access at page
    granularity via an external {!Sim.Costbuf.t}, so tight loops charge
    in batches. *)

type t

val dram : unit -> t
(** The malloc/free baseline. *)

val mapped :
  ?elem_bytes:int ->
  pages:int ->
  (page:int -> write:bool -> buf:Sim.Costbuf.t -> unit) ->
  t
(** [mapped ~pages touch] is a bump allocator over a mapped region of
    [pages] pages; [touch ~page ~write ~buf] performs one access to the
    region's [page]-th page, adding its hit-path costs to [buf] (for
    example [Aquila.Context.touch_buf] or [Linux_sim.Mmap_sys.touch_buf]
    on a region).  [elem_bytes] (default 8) is the on-surface footprint of
    one element: scaled-down graphs pack unrealistically many vertices per
    4 KiB page, so experiments inflate the footprint to preserve the
    paper's elements-per-page ratio (DESIGN.md §2). *)

type 'a arr
(** An allocated array of elements (8 bytes each on the surface). *)

val alloc : t -> len:int -> init:(int -> 'a) -> 'a arr
(** [alloc t ~len ~init] carves [len * elem_bytes] bytes from the surface.
    Raises [Failure] when an mmio surface is exhausted. *)

val get : 'a arr -> buf:Sim.Costbuf.t -> int -> 'a
(** [get a ~buf i] reads element [i], touching its page (read). *)

val set : 'a arr -> buf:Sim.Costbuf.t -> int -> 'a -> unit
(** [set a ~buf i v] writes element [i], touching its page (write —
    dirty-tracked on mmio surfaces). *)

val len : 'a arr -> int

val free : 'a arr -> unit
(** Releases the OCaml backing store (the surface range is not reused —
    Ligra's allocation pattern is phase-based). *)
