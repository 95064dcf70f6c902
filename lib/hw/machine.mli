(** Per-core hardware state of the simulated machine.

    Holds each core's TLB and a pending-interrupt-cycles accumulator.
    Interrupt work delivered to a core (e.g. TLB-shootdown IPIs) is added
    to the accumulator by the sender; the fiber pinned to that core drains
    it at its next opportunity, modelling the perturbation that interrupt
    storms impose on victim threads. *)

type core = {
  id : int;
  tlb : Tlb.t;
  mutable pending_irq : int;  (** interrupt cycles not yet absorbed *)
  mutable irqs_received : int;
}

type t

val create : ?topology:Topology.t -> ?tlb_capacity:int -> unit -> t
(** [create ()] builds a machine with the default 32-core / 2-node
    topology. *)

val topology : t -> Topology.t
val core : t -> int -> core
(** [core t i] is core [i]'s state.  Raises [Invalid_argument] on bad id. *)

val cores : t -> core array

val receive_irq : core -> int64 -> unit
(** [receive_irq co c] queues [c] cycles of interrupt-handling work on the
    core whose record is [co]. *)

val deliver_irq : t -> core:int -> int64 -> unit
(** [deliver_irq t ~core c] is {!receive_irq} on [core]'s record. *)

val drain_irq : t -> core:int -> int64
(** [drain_irq t ~core] returns and clears the pending interrupt cycles for
    [core].  The calling fiber should charge the returned amount as [Sys]
    time.  With nothing pending it returns [0L] and allocates nothing. *)
