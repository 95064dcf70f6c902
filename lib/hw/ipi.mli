(** Inter-processor interrupts and TLB shootdowns.

    A shootdown invalidates a set of pages in the TLBs of every core that
    may cache them.  The sender pays the send cost (once per batch in
    Aquila's batched scheme, Section 4.1) plus the wait for the slowest
    receiver's acknowledgement; each receiving core is charged the
    receive-plus-invalidate work through {!Machine.receive_irq}. *)

type send_mode =
  | Posted  (** posted interrupts, no vmexit on the send path: 298 cycles *)
  | Vmexit_send
      (** send forced through a vmexit for DoS rate-limiting (Aquila's
          default, Section 4.1): 2081 cycles *)
  | Kernel_ipi  (** ordinary kernel IPI as used by Linux shootdowns *)

val send_cost : Costs.t -> send_mode -> int64
(** [send_cost c m] is the sender-side cost of initiating one IPI batch. *)

val full_flush_above : int
(** 33: Linux's [tlb_single_page_flush_ceiling].  A batch of more pages
    costs one full TLB flush on the initiator and on every receiver
    instead of one invlpg per page; Aquila applies the same rule. *)

val shootdown :
  Machine.t ->
  Costs.t ->
  mode:send_mode ->
  src:int ->
  targets:int list ->
  vpns:int list ->
  int64
(** [shootdown m c ~mode ~src ~targets ~vpns] invalidates [vpns] in the
    TLBs of [targets] (excluding [src], whose local invalidation the caller
    performs).  Mutates the target TLBs, queues receive work on each target
    core, and returns the cycles to charge the {e sender} (send plus
    ack-wait).  When no target other than [src] is left it sends nothing,
    counts no batch and returns 0. *)

val invalidate :
  Machine.t ->
  Costs.t ->
  mode:send_mode ->
  core:int ->
  targets:int list ->
  vpns:int list ->
  int64
(** [invalidate m c ~mode ~core ~targets ~vpns] is a batch invalidation
    started on [core]: the local invalidation of [vpns] (one invlpg each,
    or one full flush past {!full_flush_above} pages, the threshold every
    receiver also applies) plus one {!shootdown} of the other [targets].
    Returns the initiator's cycles.  An empty [vpns] does nothing and
    returns 0. *)

val shootdowns_sent : unit -> int
(** Shootdown batches sent by this domain: its cell of the
    [hw_tlb_shootdowns] registry family.  {!Metrics.Registry.reset}
    zeroes it; callers that must not reset take a before/after delta. *)
