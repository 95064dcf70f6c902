let psz = Hw.Defs.page_size

type 'a t = { fresh : unit -> 'a; mutable free : 'a list }

let create fresh = { fresh; free = [] }

let with_ t f =
  let b =
    match t.free with
    | b :: rest ->
        t.free <- rest;
        b
    | [] -> t.fresh ()
  in
  match f b with
  | v ->
      t.free <- b :: t.free;
      v
  | exception e ->
      t.free <- b :: t.free;
      raise e

type pages = Bytes.t t array

(* 2^24 pages is 64 GiB: no simulated transfer comes near it *)
let classes = 25

let pages () =
  Array.init classes (fun c -> create (fun () -> Bytes.create ((1 lsl c) * psz)))

let with_pages p n f =
  if n < 1 || n > 1 lsl (classes - 1) then
    invalid_arg "Bufpool.with_pages: page count out of range";
  let rec cls c = if 1 lsl c >= n then c else cls (c + 1) in
  with_ p.(cls 0) f
