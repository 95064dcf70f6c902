(** Cycle-cost model for the simulated x86-64 / VT-x machine.

    Every constant that the paper reports directly is used verbatim
    (Sections 3.3, 4.1, 4.4, 6.4 of the paper and the Dune/Shinjuku numbers
    it cites); the remaining constants are calibrated so that the composite
    measurements in Figures 7 and 8 land close to the published breakdowns.
    The model is a record so ablation benches can perturb individual
    costs. *)

type t = {
  (* Protection-domain transitions *)
  trap_ring3 : int64;
      (** ring 3 → ring 0 page-fault trap plus [iret] return: 1287 cycles
          (536 ns), Section 6.4 *)
  exception_ring0 : int64;
      (** exception delivered inside non-root ring 0 (Aquila): 552 cycles
          (230 ns), Section 6.4 *)
  vmexit : int64;  (** one-way vmexit: ~750 cycles (250 ns), Section 4.4 *)
  vmcall_roundtrip : int64;
      (** guest → hypervisor → guest round trip for uncommon operations *)
  syscall : int64;  (** syscall entry/exit pair in the host kernel *)
  (* Interrupts *)
  ipi_send_posted : int64;  (** posted-interrupt send, no vmexit: 298 cycles *)
  ipi_send_vmexit : int64;
      (** IPI send forced through a vmexit (DoS-rate-limited path): 2081
          cycles, Section 4.1 *)
  ipi_receive : int64;  (** receive + handler dispatch on the target core *)
  exception_stack_switch : int64;
      (** IST-style alternate-stack switch and exception-frame copy used by
          Aquila's handlers (Section 4.2) *)
  (* TLB and page tables *)
  tlb_invlpg : int64;  (** single-page local invalidation *)
  tlb_full_flush : int64;  (** full local TLB flush *)
  tlb_miss_walk : int64;  (** hardware page-table walk on a TLB miss *)
  pte_update : int64;  (** write one PTE and its flags *)
  ept_fault : int64;
      (** EPT-violation vmexit handling in the host (excluding the vmexit
          transition itself) *)
  (* Data copies (Section 3.3) *)
  memcpy_4k_scalar : int64;  (** 4 KiB copy without SIMD: ~2400 cycles *)
  memcpy_4k_avx2 : int64;  (** 4 KiB AVX2 streaming copy: ~900 cycles *)
  fpu_save_restore : int64;  (** XSAVEOPT/FXRSTOR pair: ~300 cycles *)
  (* Software data structures on the fault path *)
  hash_lookup : int64;  (** lock-free hash-table probe *)
  hash_update : int64;  (** lock-free hash-table insert/remove (CAS) *)
  rb_op : int64;  (** red-black tree insert/delete/search step cost *)
  radix_lookup : int64;  (** radix-tree descend *)
  radix_update : int64;  (** radix-tree insert/remove *)
  freelist_op : int64;  (** lock-free per-core freelist push/pop *)
  lru_update : int64;  (** LRU-approximation bookkeeping per fault *)
  (* Linux kernel path *)
  vma_lookup : int64;  (** VMA red-black-tree walk under [mmap_sem] *)
  kernel_fault_entry : int64;  (** generic fault-path bookkeeping *)
  kernel_block_layer : int64;
      (** block-layer submit/complete software cost for one request *)
  kernel_buffered_read : int64;
      (** per-4KiB VFS + page-cache cost of a buffered [read] *)
  sched_wakeup : int64;  (** context switch / wakeup after I/O sleep *)
}

val default : t
(** The calibrated model described above. *)

val min_cross_shard_latency : t -> int64
(** [min_cross_shard_latency c] is the smallest virtual-time distance at
    which one simulation shard can affect another — the posted-IPI
    send + receive cost ([298 + 500] cycles in {!default}), the
    cheapest cross-core channel in the model.  Conservative-parallel
    runs ([Sim.Shard]) use it as the lookahead floor: between barriers
    each shard may run this many cycles past the cluster's minimum
    next-event time without missing a cross-shard event.  Workloads
    whose only cross-shard traffic is coarser (e.g. NVMe completions,
    [setup_cycles] >= 2400) may declare a larger lookahead. *)

val rb_depth : int -> int
(** [rb_depth n] is the node visits of one descent into a balanced
    red-black tree of [n] entries: floor(log2 n) + 1, and 1 below two
    entries.  Aquila's dirty-page trees and the Linux VMA tree are
    charged per visit from their size alone. *)

val memcpy_4k : t -> simd:bool -> int64
(** [memcpy_4k c ~simd] is the cost of one 4 KiB copy.  With [simd] the
    AVX2 streaming cost applies {e plus} the FPU save/restore that a fault
    handler must pay to use vector registers (Section 3.3: 900 + 300 =
    1200 cycles vs 2400 scalar). *)

val memcpy_bytes : t -> simd:bool -> int -> int64
(** [memcpy_bytes c ~simd n] scales the 4 KiB copy cost linearly to [n]
    bytes, charging the FPU save/restore once. *)
