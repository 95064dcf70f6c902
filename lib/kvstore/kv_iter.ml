(* A cursor is a peekable stream: [head] caches the next binding and
   [advance] refills it. *)
type t = { mutable head : (string * string) option; advance : unit -> (string * string) option }

let refill t = t.head <- t.advance ()

let peek t = t.head

let next t =
  let r = t.head in
  (match r with Some _ -> refill t | None -> ());
  r

let of_sorted_list l =
  let rest = ref l in
  let advance () =
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x
  in
  let t = { head = None; advance } in
  refill t;
  t

let of_memtable m ~start =
  (* snapshot; memtables are small relative to SSTs *)
  of_sorted_list (Memtable.range m ~start ~n:max_int)

let of_sst sst ~start =
  let scratch = Sst.scratch () in
  let block = ref (Sst.locate_start_block sst ~scratch start) in
  let pending = ref [] in
  let rec advance () =
    match !pending with
    | (k, v) :: tl ->
        pending := tl;
        if k >= start then Some (k, v) else advance ()
    | [] ->
        if !block >= Sst.data_pages sst then None
        else begin
          pending := Sst.read_block_records sst ~scratch !block;
          incr block;
          advance ()
        end
  in
  let t = { head = None; advance } in
  refill t;
  t

let of_fun pull =
  let t = { head = None; advance = pull } in
  refill t;
  t

let merge sources =
  let arr = Array.of_list sources in
  let advance () =
    (* smallest head key; earliest source wins ties *)
    let best = ref None in
    Array.iteri
      (fun i s ->
        match (peek s, !best) with
        | Some (k, _), None -> best := Some (k, i)
        | Some (k, _), Some (bk, _) when k < bk -> best := Some (k, i)
        | _ -> ())
      arr;
    match !best with
    | None -> None
    | Some (k, i) ->
        let r = next arr.(i) in
        (* consume the shadowed duplicates from lower-priority sources *)
        Array.iteri
          (fun j s ->
            if j <> i then
              match peek s with
              | Some (k', _) when k' = k -> ignore (next s)
              | _ -> ())
          arr;
        r
  in
  let t = { head = None; advance } in
  refill t;
  t

let take t n =
  let rec go n acc =
    if n = 0 then List.rev acc
    else match next t with None -> List.rev acc | Some x -> go (n - 1) (x :: acc)
  in
  go n []
