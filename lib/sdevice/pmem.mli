(** Byte-addressable non-volatile memory (pmem).

    Two access styles, as in Section 3.3 of the paper:

    - {b DAX}: the device is mapped into the address space and accessed by
      CPU loads/stores — a read is a [memcpy] whose cycle cost depends on
      whether AVX2 streaming copies are used (Aquila) or not (the kernel).
      DAX accesses are synchronous CPU work: no queueing, no idle time.
    - {b block}: the same media exposed as a Linux [pmem] block device,
      paying the block-layer software path on every request.  Used to
      emulate "a fast NVM block device backed by DRAM" exactly as the
      paper's methodology does. *)

type t

val create : ?name:string -> ?capacity_bytes:int64 -> unit -> t

val name : t -> string
val store : t -> Pagestore.t
val capacity_bytes : t -> int64

val block_dev : t -> Block_dev.t
(** The same media viewed as a [pmem] block device (16 channels, 600-cycle
    setup, 0.24 cycles/byte — ~10 GB/s class). *)

val dax_read :
  t -> Hw.Costs.t -> simd:bool -> addr:int64 -> len:int -> dst:Bytes.t -> dst_off:int -> int64
(** [dax_read t c ~simd ~addr ~len ~dst ~dst_off] copies data out of NVM
    with CPU loads and returns the cycles to charge (the caller charges
    them, typically inside a fault handler).  NVM reads are slower than
    DRAM: the copy cost is derated by the media factor. *)

val dax_write :
  t -> Hw.Costs.t -> simd:bool -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int -> int64

val dax_reads : t -> int
