(** Static sorted table (SST) — RocksDB's on-device file format, scaled.

    Layout (page-aligned): data blocks of 4 KiB holding
    [u16 klen | u32 vlen | key | value] records, followed by an index area
    (first key of every block) and a serialized bloom filter.  Only the
    page layout and key range live in memory (the manifest); gets read the
    filter, index and data {e through the environment}, so the cost of
    metadata access follows the configured I/O path, as it does in each of
    the paper's setups.  What a read returns is decoded where it lies: the
    filter is probed, the index binary-searched and the block scanned in
    the caller's {!scratch} buffer, and only the values handed back are
    copied out.

    A record's key is non-empty (a zero key length marks the end of a
    block) and the record fits one block: 6 + |key| + |value| ≤ 4096. *)

type t

val check_record : string -> string -> unit
(** [check_record k v] raises [Invalid_argument] naming the cause if the
    format cannot hold the record: ["Sst: empty key"] or
    ["Sst: record larger than a block"]. *)

val build : Env.t -> name:string -> (string * string) list -> t
(** [build env ~name records] writes a new SST from ascending-key,
    duplicate-free [records], each accepted by {!check_record} (checked
    before anything is written).  Must run inside a fiber.  If a write
    raises, the file is deleted before the exception propagates. *)

val first_key : t -> string
val last_key : t -> string
val nrecords : t -> int
val data_pages : t -> int
val total_pages : t -> int

type scratch
(** A read buffer, grown on demand to the largest filter, index or block
    read into it.  Reads may suspend the fiber, so fibers must not share
    one. *)

val scratch : unit -> scratch

val get : t -> scratch:scratch -> string -> string option
(** Point lookup through filter → index → data block.  Charges compute
    under ["kv_get"*] labels; I/O is charged by the environment. *)

val iter_from : t -> start:string -> f:(string -> string -> bool) -> unit
(** [iter_from t ~start ~f] visits records with key ≥ [start] in order
    until [f] returns [false]. *)

val locate_start_block : t -> scratch:scratch -> string -> int
(** [locate_start_block t ~scratch key] is the data block that may
    contain [key] (for streaming cursors); reads the index through the
    environment. *)

val read_block_records : t -> scratch:scratch -> int -> (string * string) list
(** [read_block_records t ~scratch b] reads data block [b] and returns its
    records in order.  [b] must be in [\[0, data_pages)]. *)

val delete : t -> unit
