(** Pluggable DRAM-cache replacement policies.

    The paper's central argument is that common-path operation ② —
    choosing which cached page to evict — must run in the application's
    protection domain to be fast {e and} customizable.  This module makes
    the "customizable" half real: {!Dram_cache} drives replacement
    exclusively through this interface, so a policy can be swapped per
    cache instance (the [--policy] knob on the CLI and benches) without
    touching the fault path.

    Frames are integers in [\[0, nframes)], the same identifiers the
    cache's frame array uses.  A policy tracks only {e resident} frames:
    {!note_insert} when a frame starts holding a page, {!note_remove}
    when it stops, {!retire} when the frame leaves the cache entirely
    (shrink) — after which the policy must hold no metadata for it.

    Cost convention (matches {!Dram_cache}): bookkeeping work is
    {e returned} as cycles through the {!Hw.Costs} model, so policies
    differ in simulated time as well as hit rate.  The CLOCK policy
    reproduces the pre-policy-interface cache byte for byte: same victims
    in the same order, same charged cycles. *)

type kind =
  | Clock  (** reference-bit CLOCK sweep (the paper's LRU approximation) *)
  | Fifo  (** eviction in residency order; zero per-access bookkeeping *)
  | Lru  (** strict LRU via an intrusive doubly-linked list *)
  | Two_q
      (** scan-resistant 2Q: new pages enter a probationary FIFO and are
          promoted to the protected LRU main queue on re-reference, so a
          one-shot scan cannot flush the hot set *)
  | Random of int
      (** seeded sampled-LRU (Redis-style): each victim is the
          least-recently-stamped of [k] frames sampled from the policy's
          own deterministic stream; the payload is the seed *)

val default_random_seed : int

val kind_of_string : string -> (kind, string) result
(** Accepts "clock", "fifo", "lru", "2q", "random" and "random:SEED". *)

val kind_to_string : kind -> string

val all_kinds : kind list
(** One representative of each policy, CLOCK first. *)

type t

val make : Hw.Costs.t -> nframes:int -> kind -> t
val kind : t -> kind

val touch : t -> int -> int64
(** [touch t f] records an access to resident frame [f] and returns the
    bookkeeping cycles to charge: CLOCK sets a reference bit
    ([lru_update]); strict LRU relinks to the list tail
    (2×[lru_update]); 2Q promotes or relinks; FIFO does nothing (0);
    sampled-LRU stamps the access clock ([lru_update]). *)

val note_insert : t -> int -> touched:bool -> unit
(** [note_insert t f ~touched] marks [f] resident.  [touched] seeds the
    initial recency (CLOCK's reference bit / a fresh stamp); readahead
    frames are inserted untouched so an unread prefetch is the first to
    go.  Uncharged: the miss path's costs already cover it.  Idempotent
    for an already-resident frame. *)

val note_remove : t -> int -> unit
(** [note_remove t f] marks [f] no longer resident (drop, crash).
    Idempotent. *)

val retire : t -> int -> unit
(** [retire t f] removes {e all} metadata for [f] — membership, recency,
    reference bits — so a retired frame can never surface as a victim
    and a later {!Dram_cache.grow} re-add starts clean. *)

val is_active : t -> int -> bool
val active_count : t -> int

val evict_candidates : t -> int -> int list * int64
(** [evict_candidates t n] selects and removes up to [n] victims, in
    eviction order, plus the selection cycles to charge (CLOCK's sweep is
    folded into its per-access cost and returns 0, preserving the
    pre-interface accounting; list policies charge [freelist_op] per
    dequeue; sampled-LRU charges [k]×[lru_update] per victim). *)
