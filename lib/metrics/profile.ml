(* Virtual-time sampling profiler.

   Rather than instrumenting wall-clock signals, we sample the simulated
   clock: every charge of [c] cycles to a cost label covers the span
   [now, now+c), and the profiler credits the span with one sample per
   crossing of a fixed virtual-time grid (period [period] cycles).
   Sampling is therefore a pure function of the deterministic schedule —
   the same seed gives the same profile, and attributing samples costs
   one division per charge instead of a timer.

   Output is folded-stack ("fiber;label count" per line), directly
   consumable by flamegraph.pl or speedscope. *)

type t = {
  period : int;
  ts_period : int; (* 0 = timeseries disabled *)
  tbl : (string, int ref) Hashtbl.t; (* "fiber;label" -> samples *)
  mutable next_ts : int;
  mutable rows : (int * (string * int) list) list; (* reverse order *)
}

let create ?(period = 10_000) ?(ts_period = 0) () =
  if period <= 0 then invalid_arg "Profile.create: period must be positive";
  {
    period;
    ts_period;
    tbl = Hashtbl.create 64;
    next_ts = (if ts_period > 0 then ts_period else max_int);
    rows = [];
  }

let charge p ~now ~cycles ~fiber ~label =
  let fin = now + cycles in
  (* one sample per grid point in (now, now+cycles] *)
  let s = (fin / p.period) - (now / p.period) in
  if s > 0 then begin
    let k = fiber ^ ";" ^ label in
    match Hashtbl.find_opt p.tbl k with
    | Some r -> r := !r + s
    | None -> Hashtbl.add p.tbl k (ref s)
  end;
  if fin >= p.next_ts then begin
    let pairs = Export.flat_pairs (Registry.snapshot ()) in
    while fin >= p.next_ts do
      p.rows <- (p.next_ts, pairs) :: p.rows;
      p.next_ts <- p.next_ts + p.ts_period
    done
  end

let folded p =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) p.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, n) -> Printf.sprintf "%s %d\n" k n)
  |> String.concat ""

(* Long-format timeseries: one row per (grid time, metric key).  Keys
   contain commas inside "{...}", so they go through CSV escaping. *)
let timeseries_csv p =
  let b = Buffer.create 1024 in
  Buffer.add_string b "cycles,key,value\n";
  List.iter
    (fun (ts, pairs) ->
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Printf.sprintf "%d,%s,%d\n" ts (Export.csv_field k) v))
        pairs)
    (List.rev p.rows);
  Buffer.contents b
