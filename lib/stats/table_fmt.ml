let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let line row =
    String.concat "  "
      (List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row)
  in
  let total_width =
    Array.fold_left ( + ) 0 widths + (2 * max 0 (ncols - 1))
  in
  Sim.Sink.print_newline ();
  Sim.Sink.printf "== %s ==\n" title;
  Sim.Sink.printf "%s\n" (line header);
  Sim.Sink.printf "%s\n" (String.make (max total_width (String.length title + 6)) '-');
  List.iter (fun r -> Sim.Sink.printf "%s\n" (line r)) rows

let kcycles c =
  if c >= 1000. then Printf.sprintf "%.1fK" (c /. 1000.)
  else Printf.sprintf "%.0f" c

let ops_per_sec x =
  if x >= 1e6 then Printf.sprintf "%.2f Mops/s" (x /. 1e6)
  else if x >= 1e3 then Printf.sprintf "%.1f Kops/s" (x /. 1e3)
  else Printf.sprintf "%.0f ops/s" x

let seconds s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let speedup x = Printf.sprintf "%.2fx" x

let usec_of_cycles c = Printf.sprintf "%.2f us" (c /. 2400.)

let pct x = Printf.sprintf "%.1f%%" x
