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

let insert t tree key frame =
  if not (Imap.mem key tree.map) then begin
    tree.size <- tree.size + 1;
    t.count <- t.count + 1
  end;
  tree.map <- Imap.add key frame tree.map

let add t ~core ~key ~frame =
  let tree = t.trees.(core) in
  let cost = op_cost t tree in
  insert t tree key frame;
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
  let cost = ref 0L in
  let all = ref [] in
  Array.iter
    (fun tree ->
      let taken, rest = Imap.partition (fun k _ -> keep k) tree.map in
      tree.map <- rest;
      (* one removal per entry, each charged at the size before it *)
      Imap.iter
        (fun k f ->
          cost := Int64.add !cost (op_cost t tree);
          tree.size <- tree.size - 1;
          t.count <- t.count - 1;
          all := (k, f) :: !all)
        taken)
    t.trees;
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) !all in
  let sorted =
    match limit with
    | None -> sorted
    | Some n ->
        (* keep the n smallest; put the rest back *)
        let rec split i acc = function
          | [] -> (List.rev acc, [])
          | x :: rest when i < n -> split (i + 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let take, back = split 0 [] sorted in
        (* return overflow entries to core 0 *)
        List.iter (fun (k, f) -> insert t t.trees.(0) k f) back;
        take
  in
  (sorted, !cost)
