module Imap = Map.Make (Int)

(* One core's dirty pages and their count; only the count sets a cost. *)
type tree = { mutable map : int Imap.t; mutable size : int }
type t = { costs : Hw.Costs.t; trees : tree array; mutable count : int }

let create costs ~cores =
  if cores <= 0 then invalid_arg "Dirty_set.create";
  {
    costs;
    trees = Array.init cores (fun _ -> { map = Imap.empty; size = 0 });
    count = 0;
  }

let op_cost t tree =
  Int64.mul t.costs.Hw.Costs.rb_op (Int64.of_int (Hw.Costs.rb_depth tree.size))

let add t ~core ~key ~frame =
  let tree = t.trees.(core) in
  let cost = op_cost t tree in
  if not (Imap.mem key tree.map) then begin
    tree.size <- tree.size + 1;
    t.count <- t.count + 1
  end;
  tree.map <- Imap.add key frame tree.map;
  cost

let remove t ~core ~key =
  let tree = t.trees.(core) in
  let cost = op_cost t tree in
  let map = Imap.remove key tree.map in
  if map != tree.map then begin
    tree.map <- map;
    tree.size <- tree.size - 1;
    t.count <- t.count - 1
  end;
  cost

let total t = t.count

let drain_sorted t ?file ?limit () =
  let keep key = match file with None -> true | Some f -> Pagekey.file_of key = f in
  let all = ref [] in
  Array.iteri
    (fun core tree ->
      Imap.iter (fun k f -> if keep k then all := (k, f, core) :: !all) tree.map)
    t.trees;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !all in
  let taken =
    match limit with
    | None -> sorted
    | Some n -> List.filteri (fun i _ -> i < n) sorted
  in
  (* each entry leaves the core that holds it, charged one removal at
     that core's size before it *)
  let cost =
    List.fold_left
      (fun cost (key, _, core) -> Int64.add cost (remove t ~core ~key))
      0L taken
  in
  (List.map (fun (k, f, _) -> (k, f)) taken, cost)
