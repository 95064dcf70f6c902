(** Exporters over {!Registry.snapshot} — Prometheus-style text
    exposition and a flat JSON snapshot whose keys are gate-friendly
    (["name"] or ["name{k=v,...}"], never containing a dot, so
    the perf gate of [bench/run.exe] treats each whole key as one
    leaf). *)

val csv_field : string -> string
(** RFC 4180 CSV escaping: quotes the field iff it contains a comma,
    quote, CR or LF; embedded quotes are doubled. *)

val json_escape : string -> string
(** Escape a string for embedding inside a JSON string literal. *)

val key : ?suffix:string -> Registry.sample -> string
(** ["name"] or ["name{k=v,k2=v2}"]; [suffix] is inserted after the
    family name (e.g. ["_count"]). *)

val flat_pairs : Registry.sample list -> (string * int) list
(** One pair per counter/gauge series, [_count]/[_sum] pairs per
    histogram series, sorted by key. *)

val json : Registry.sample list -> string
(** Flat JSON object over {!flat_pairs}. *)

val prometheus : Registry.sample list -> string
(** Prometheus text exposition ([# HELP] / [# TYPE], cumulative
    [_bucket{le=...}] lines for histograms). *)

val to_file : string -> string -> unit

val write : path:string -> Registry.sample list -> unit
(** Write Prometheus exposition if [path] ends in [.prom] or [.txt],
    the flat JSON snapshot otherwise. *)
