(** Cycle-breakdown aggregation across fibers.

    Experiments aggregate the per-fiber label accounting kept by the
    engine ({!Sim.Engine.labels}) into named categories and print the
    per-operation breakdowns the paper's Figures 7 and 8 report. *)

type t

val create : unit -> t

val absorb : t -> Sim.Engine.ctx -> unit
(** [absorb t ctx] folds a finished fiber's label table and user/sys
    totals into the aggregate. *)

val label : t -> string -> int64
(** Total cycles recorded under an exact label. *)

val labels : t -> (string * int64) list
(** All labels, descending by cycles. *)

val group : t -> prefixes:string list -> int64
(** [group t ~prefixes] sums every label that starts with one of
    [prefixes]. *)

val user : t -> int64
val sys : t -> int64

val per_op : int64 -> int -> float
(** [per_op total n] is cycles per operation as a float ([0.] if [n=0]). *)
