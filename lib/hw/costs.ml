type t = {
  trap_ring3 : int64;
  exception_ring0 : int64;
  vmexit : int64;
  vmcall_roundtrip : int64;
  syscall : int64;
  ipi_send_posted : int64;
  ipi_send_vmexit : int64;
  ipi_receive : int64;
  exception_stack_switch : int64;
  tlb_invlpg : int64;
  tlb_full_flush : int64;
  tlb_miss_walk : int64;
  pte_update : int64;
  ept_fault : int64;
  memcpy_4k_scalar : int64;
  memcpy_4k_avx2 : int64;
  fpu_save_restore : int64;
  hash_lookup : int64;
  hash_update : int64;
  rb_op : int64;
  radix_lookup : int64;
  radix_update : int64;
  freelist_op : int64;
  lru_update : int64;
  vma_lookup : int64;
  kernel_fault_entry : int64;
  kernel_block_layer : int64;
  kernel_buffered_read : int64;
  sched_wakeup : int64;
}

let default =
  {
    trap_ring3 = 1287L;
    exception_ring0 = 552L;
    vmexit = 750L;
    vmcall_roundtrip = 3000L;
    syscall = 700L;
    ipi_send_posted = 298L;
    ipi_send_vmexit = 2081L;
    ipi_receive = 500L;
    exception_stack_switch = 90L;
    tlb_invlpg = 160L;
    tlb_full_flush = 500L;
    tlb_miss_walk = 90L;
    pte_update = 140L;
    ept_fault = 1200L;
    memcpy_4k_scalar = 2400L;
    memcpy_4k_avx2 = 900L;
    fpu_save_restore = 300L;
    hash_lookup = 180L;
    hash_update = 260L;
    rb_op = 240L;
    radix_lookup = 150L;
    radix_update = 380L;
    freelist_op = 60L;
    lru_update = 110L;
    vma_lookup = 350L;
    kernel_fault_entry = 320L;
    kernel_block_layer = 1400L;
    kernel_buffered_read = 1900L;
    sched_wakeup = 2000L;
  }

(* Conservative-PDES lookahead (DESIGN.md §9): the minimum virtual-time
   distance at which one shard of the simulation can affect another.
   The cheapest cross-core channel in the model is a posted IPI —
   send-side cost plus delivery — so no cross-shard event can land
   sooner than this after its cause, and shards may safely free-run a
   window of this width past the global minimum next-event time. *)
let min_cross_shard_latency c = Int64.add c.ipi_send_posted c.ipi_receive

let rb_depth n =
  let rec go acc n = if n < 2 then acc else go (acc + 1) (n / 2) in
  go 1 n

let memcpy_4k c ~simd =
  if simd then Int64.add c.memcpy_4k_avx2 c.fpu_save_restore
  else c.memcpy_4k_scalar

let memcpy_bytes c ~simd n =
  if n <= 0 then 0L
  else
    let per4k = if simd then c.memcpy_4k_avx2 else c.memcpy_4k_scalar in
    let scaled = Int64.of_float (Int64.to_float per4k *. float_of_int n /. 4096.) in
    let scaled = if Int64.compare scaled 30L < 0 then 30L else scaled in
    if simd then Int64.add scaled c.fpu_save_restore else scaled
