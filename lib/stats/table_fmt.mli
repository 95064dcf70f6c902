(** Paper-style table printing for the benchmark harness.

    Renders rows of figures with aligned columns on stdout, plus helpers
    for formatting cycle counts, throughputs, and speedups consistently
    across experiments. *)

val print_table : title:string -> header:string list -> string list list -> unit
(** [print_table ~title ~header rows] prints an aligned table. *)

val kcycles : float -> string
(** [kcycles c] formats cycles as ["12.3K"]. *)

val ops_per_sec : float -> string
(** [ops_per_sec x] as ["123.4 Kops/s"]. *)

val seconds : float -> string
val speedup : float -> string
(** e.g. ["2.58x"]. *)

val usec_of_cycles : float -> string
(** Cycles rendered as microseconds at the simulated 2.4 GHz clock. *)

val pct : float -> string
