(** Figure 6: Ligra BFS with the application heap extended over fast
    storage — Linux mmap vs Aquila (pmem and NVMe) vs DRAM-only, plus the
    user/system/idle time breakdown. *)

val graph : unit -> Ligra.Graph.t
(** The R-MAT graph every run traverses, generated on first use; safe to
    call from several domains at once. *)

val run_a : unit -> unit
(** Execution times with the small (heap/8) cache. *)

val run_b : unit -> unit
(** Execution times with the large (heap/4) cache. *)

val run_c : unit -> unit
(** User/system/idle breakdown at 16 threads. *)
