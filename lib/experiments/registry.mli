(** Experiment registry: every table and figure of the paper's evaluation,
    plus the ablations and sensitivity sweeps, addressable by id for the
    CLI. *)

type entry = {
  id : string;  (** e.g. "fig8a" *)
  title : string;
  run : unit -> unit;  (** prints the paper-style table(s) on stdout *)
}

val all : entry list
(** In paper order: table1, fig5a, fig5b, fig6a, fig6b, fig6c, fig7,
    fig8a, fig8b, fig8c, fig9, fig10a, fig10b; then the shard-partitioned,
    cluster and open-loop experiments, the [ablation-*] entries and the
    [sweep-*] entries. *)

val find : string -> entry option

val find_prefix : string -> entry list
(** [find_prefix id] is the exact match if [id] names an experiment,
    otherwise every entry whose id starts with [id] (so ["fig5"]
    resolves to fig5a and fig5b); [[]] when nothing matches. *)

val run_selected : ?jobs:int -> ?fault:Fault.Plan.spec -> entry list -> unit
(** [run_selected ~jobs entries] runs each entry (with its [### id: title]
    header) on up to [jobs] domains via {!Fanout.run}; output is printed
    in entry order and is byte-identical to a sequential run.  [fault]
    injects faults from a per-job fresh plan (see {!Fanout.run}). *)
