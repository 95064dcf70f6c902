type t = {
  tbl : (string, int64) Hashtbl.t;
  mutable u : int64;
  mutable s : int64;
}

let create () = { tbl = Hashtbl.create 32; u = 0L; s = 0L }

let absorb t (ctx : Sim.Engine.ctx) =
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find t.tbl k with Not_found -> 0L in
      Hashtbl.replace t.tbl k (Int64.add cur v))
    (Sim.Engine.labels ctx);
  t.u <- Int64.add t.u (Int64.of_int ctx.Sim.Engine.user);
  t.s <- Int64.add t.s (Int64.of_int ctx.Sim.Engine.sys)

let label t name = try Hashtbl.find t.tbl name with Not_found -> 0L

let labels t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (_, a) (_, b) -> Int64.compare b a)

let group t ~prefixes =
  Hashtbl.fold
    (fun k v acc ->
      if List.exists (fun p -> String.length k >= String.length p
                               && String.sub k 0 (String.length p) = p) prefixes
      then Int64.add acc v
      else acc)
    t.tbl 0L

let user t = t.u
let sys t = t.s

let per_op total n = if n = 0 then 0. else Int64.to_float total /. float_of_int n
