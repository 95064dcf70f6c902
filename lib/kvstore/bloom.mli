(** Bloom filter over string keys (RocksDB-style, ~10 bits/key, k=7).

    Real bit vector — false-negative-free by construction, with the usual
    ~1 % false-positive rate; serializable so SSTs persist their filters
    on the device. *)

type t

val create : expected_keys:int -> t
val add : t -> string -> unit
val mem : t -> string -> bool
val bits : t -> int

val serialize : t -> Bytes.t

val deserialize : Bytes.t -> t
(** [deserialize b] validates the header of the filter serialized at the
    start of [b] (trailing bytes are ignored) and returns a filter that
    probes [b] in place, without copying it: [b] must not change while
    the filter is in use.  Raises [Invalid_argument] on malformed
    input. *)
