(** SPDK-Blobstore-style flat namespace of blobs (Section 3.3, [60]).

    A blobstore manages the page space of one device as fixed-size
    clusters.  Blobs are identified by a unique id and are created and
    deleted at runtime.  Blob pages translate to device pages through the
    blob's cluster list, so a blob need not be contiguous on the device.

    This is pure space management: I/O goes through the owning device's
    {!Sdevice.Access} method using the page numbers translated here. *)

type t
type blob

val create : capacity_pages:int -> ?cluster_pages:int -> ?shards:int -> unit -> t
(** [create ~capacity_pages ()] manages a device of that many pages.
    [cluster_pages] defaults to 256 (1 MiB clusters).  [shards] (default
    1) partitions the free-cluster pool by [cluster mod shards]: a
    shard-owned driver allocates blobs on its own partition
    ({!create_blob}'s [?shard]) and frees return each cluster to its
    static owner, so the allocator is not shared state in partitioned
    runs.  [shards = 1] is byte-identical to the unsharded store. *)

val cluster_pages : t -> int
val capacity_pages : t -> int
val free_pages : t -> int

val shards : t -> int

val shard_free_pages : t -> int -> int
(** [shard_free_pages t s] is shard [s]'s remaining partition, in pages
    (sums to {!free_pages}). *)

val create_blob : t -> ?name:string -> ?shard:int -> pages:int -> unit -> blob
(** [create_blob t ~pages ()] allocates a blob with room for [pages]
    pages (rounded up to whole clusters).  [shard] (default 0) selects
    the free-list partition clusters are preferred from; an exhausted
    partition falls back to stealing from the others in ascending
    [(shard + k) mod shards] order — deterministic, so allocation stays
    a pure function of store history at any shard count.  Raises
    [Failure] when the whole store is full. *)

val open_blob : t -> int -> blob
(** [open_blob t id] finds an existing blob.  Raises [Not_found]. *)

val blob_id : blob -> int
val blob_name : blob -> string option
val blob_pages : blob -> int

val blob_shard : blob -> int
(** The allocation shard passed at {!create_blob}. *)

val delete : t -> blob -> unit
(** [delete t b] returns [b]'s clusters to the free pool. *)

val device_page : blob -> int -> int
(** [device_page b p] is the device page backing blob page [p].  Raises
    [Invalid_argument] if [p] is out of range. *)

val translate : blob -> int -> int option
(** [translate b] maps the pages of a file stored as the one blob [b] to
    device pages: [translate b p] is [Some (device_page b p)] for a page
    of the blob and [None] past its end.  It is the [~translate] a mapped
    or direct-I/O file is attached with. *)

val contiguous_run : blob -> int -> int
(** [contiguous_run b p] is the number of blob pages starting at [p] that
    are physically contiguous on the device — the largest single I/O that
    can cover them. *)

val blob_count : t -> int
