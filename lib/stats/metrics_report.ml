(* Human-readable rendering of an aqmetrics snapshot, for
   `aquila_cli run --report`.  Reuses the Table_fmt layout so metric tables
   line up with the experiment tables they appear next to. *)

let kind_str = function
  | Metrics.Registry.Counter -> "counter"
  | Metrics.Registry.Gauge -> "gauge"
  | Metrics.Registry.Histogram -> "histogram"

let print ?(title = "metrics") samples =
  let rows =
    Metrics.Export.flat_pairs samples
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.map (fun (k, v) -> [ k; Printf.sprintf "%d" v ])
  in
  if rows = [] then Sim.Sink.printf "\n== %s ==\n(no nonzero metrics)\n" title
  else Table_fmt.print_table ~title ~header:[ "metric"; "value" ] rows

(* Per-family summary with help text — the "what even exists" view. *)
let print_families ?(title = "metric families") samples =
  let seen = Hashtbl.create 32 in
  let rows =
    List.filter_map
      (fun (s : Metrics.Registry.sample) ->
        if Hashtbl.mem seen s.s_name then None
        else begin
          Hashtbl.add seen s.s_name ();
          Some [ s.s_name; kind_str s.s_kind; s.s_help ]
        end)
      samples
  in
  Table_fmt.print_table ~title ~header:[ "family"; "kind"; "help" ] rows
