(** The hardware half of a memory access, the same under both mmap stacks.

    A load or store to a mapped page absorbs the interrupt work pending on
    its core, looks the page up in the core's TLB (a page walk on a miss)
    and checks the page table's permission.  What follows a failed check
    is the OS's fault path, where the paper's stacks differ, so
    {!Aquila.Context} and {!Linux_sim.Mmap_sys} each keep only their own
    and reach their pages through {!access} and {!copy}. *)

val no_frame : int
(** What {!access} returns when the access must fault. *)

val access :
  Machine.t ->
  Costs.t ->
  Page_table.t ->
  core:int ->
  vpn:int ->
  write:bool ->
  Sim.Costbuf.t ->
  int
(** [access m c pt ~core ~vpn ~write buf] is one load ([write = false]) or
    store on [core] to virtual page [vpn].  It adds the drained interrupt
    cycles to [buf] under ["irq"] and the TLB lookup's under ["tlb_walk"],
    then returns the page's frame if [pt] maps it (writable, for a store,
    whose dirty bit it sets) and {!no_frame} otherwise, so a hit allocates
    no option. *)

val copy :
  touch:('s -> 'r -> page:int -> write:bool -> Sim.Costbuf.t -> int) ->
  frame:('s -> int -> Bytes.t) ->
  's ->
  'r ->
  write:bool ->
  off:int ->
  len:int ->
  Bytes.t ->
  unit
(** [copy ~touch ~frame s r ~write ~off ~len b] moves bytes
    [\[off, off+len)] of region [r] of stack [s] between [b] (from its
    offset 0) and the mapped frames, page by page: [touch s r ~page ~write
    buf] is the stack's page access, returning the frame number, and
    [frame s pfn] is that frame's bytes.  A read ([write = false]) fills
    [b]; a write stores [b].  Hit costs are charged once, at the end.  The
    caller checks the bounds.  Must run inside a fiber. *)
