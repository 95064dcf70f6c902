(** Global architectural constants shared by the whole simulator. *)

val page_size : int
(** Bytes per base page (4 KiB, as on x86-64). *)

val page_shift : int
(** [log2 page_size]. *)

val page_of_addr : int64 -> int
(** [page_of_addr a] is the virtual/device page number containing byte
    address [a]. *)

val addr_of_page : int -> int64
(** [addr_of_page p] is the first byte address of page [p]. *)

val pages_of_bytes : int64 -> int
(** [pages_of_bytes n] is the number of pages needed to hold [n] bytes
    (rounded up). *)

val cycles_per_ns : float
(** Simulated clock rate in cycles per nanosecond (2.4 GHz, matching the
    paper's Xeon E5-2630 v3 testbed). *)

val ns : float -> int64
(** [ns x] converts nanoseconds to cycles. *)

val us : float -> int64
(** [us x] converts microseconds to cycles. *)
