(** Real byte-addressed backing store for simulated devices.

    Pages are allocated lazily and unwritten bytes read as zero, so a
    device the size of the paper's 375 GB SSD costs memory only for pages
    actually touched.  Stores hold {e real data}: the key-value stores and
    graph runs built on top are functionally correct, not just cost
    models.

    Page [p] lives in chunk [p / 256] of a directory that grows to the
    highest written page, so a lookup indexes two arrays and the
    directory costs a word per 256 pages below that page; a chunk's page
    array is allocated with its first written page. *)

type t

val create : unit -> t

val read_bytes : t -> addr:int64 -> len:int -> dst:Bytes.t -> dst_off:int -> unit
(** [read_bytes t ~addr ~len ~dst ~dst_off] copies [len] bytes starting at
    device byte [addr] into [dst], crossing page boundaries as needed. *)

val write_bytes : t -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Raises [Invalid_argument] on a negative address; {!write_page} does
    on a negative page. *)

val read_page : t -> page:int -> dst:Bytes.t -> unit
(** [read_page t ~page ~dst] copies one full page; [dst] must hold at least
    {!Hw.Defs.page_size} bytes. *)

val write_page : t -> page:int -> src:Bytes.t -> unit

val allocated_pages : t -> int
(** Number of pages that have been materialized. *)
