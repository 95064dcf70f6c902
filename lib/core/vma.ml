type advice = Normal | Random | Sequential | Willneed | Dontneed

type area = {
  vstart : int;
  npages : int;
  file_id : int;
  file_page0 : int;
  mutable advice : advice;
}

type t = {
  costs : Hw.Costs.t;
  tree : area Dstruct.Radix_tree.t;
  mutable last : area;
      (* the area the last lookup hit: faults cluster, so most lookups
         land in it and skip the floor search *)
}

(* Holds no page, so no lookup is served from it. *)
let no_area =
  { vstart = 0; npages = 0; file_id = -1; file_page0 = 0; advice = Normal }

let create costs = { costs; tree = Dstruct.Radix_tree.create (); last = no_area }

let lookup_cost t =
  Int64.mul t.costs.Hw.Costs.radix_lookup
    (Int64.of_int (Dstruct.Radix_tree.depth t.tree))

let overlaps a b =
  a.vstart < b.vstart + b.npages && b.vstart < a.vstart + a.npages

let insert t a =
  if a.npages <= 0 || a.vstart < 0 then invalid_arg "Vma.insert: bad area";
  (* check the neighbours on both sides *)
  (match Dstruct.Radix_tree.find_floor t.tree (a.vstart + a.npages - 1) with
  | Some (_, prev) when overlaps a prev -> invalid_arg "Vma.insert: overlap"
  | _ -> ());
  ignore (Dstruct.Radix_tree.insert t.tree a.vstart a);
  t.last <- no_area;
  t.costs.Hw.Costs.radix_update

let remove t ~vstart =
  let old = Dstruct.Radix_tree.remove t.tree vstart in
  t.last <- no_area;
  (old, t.costs.Hw.Costs.radix_update)

(* The charge is the tree descent's whether or not the memo serves the
   lookup, so the simulated cost does not depend on the host shortcut. *)
let lookup t ~vpn =
  let cost = lookup_cost t in
  let last = t.last in
  if vpn >= last.vstart && vpn < last.vstart + last.npages then (Some last, cost)
  else
    match Dstruct.Radix_tree.find_floor t.tree vpn with
    | Some (_, a) when vpn < a.vstart + a.npages ->
        t.last <- a;
        (Some a, cost)
    | _ -> (None, cost)

let count t = Dstruct.Radix_tree.length t.tree
let iter f t = Dstruct.Radix_tree.iter (fun _ a -> f a) t.tree
