let bits = 6
let fanout = 1 lsl bits
let mask = fanout - 1

(* Leaves sit at shift -6, below the last inner level; the root is
   [Empty] or an [Inner].  Inserts and removes update slots in place, and
   a remove leaves its emptied inner nodes behind. *)
type 'a node = Empty | Leaf of 'a | Inner of 'a node array

type 'a t = {
  mutable root : 'a node;
  mutable height : int; (* levels below the root: key space is fanout^height *)
  mutable count : int;
}

let create () = { root = Empty; height = 1; count = 0 }
let length t = t.count

let capacity_bits height = bits * height

let fits t k = k lsr capacity_bits t.height = 0

let check k = if k < 0 then invalid_arg "Radix_tree: negative key"

(* The node at [k]'s leaf position below [node]: its [Leaf], or [Empty]. *)
let rec leaf_at node shift k =
  match node with
  | Inner slots when shift >= 0 ->
      leaf_at slots.((k lsr shift) land mask) (shift - bits) k
  | Leaf _ when shift < 0 -> node
  | _ -> Empty

let leaf t k =
  check k;
  if fits t k then leaf_at t.root (capacity_bits t.height - bits) k else Empty

let find t k = match leaf t k with Leaf v -> Some v | _ -> None
let mem t k = match leaf t k with Leaf _ -> true | _ -> false

let grow t =
  (match t.root with
  | Empty -> ()
  | root ->
      let slots = Array.make fanout Empty in
      slots.(0) <- root;
      t.root <- Inner slots);
  t.height <- t.height + 1

(* Binds [k] below [slots]; returns the leaf it replaced, or [Empty]. *)
let rec insert_at slots shift k v =
  let idx = (k lsr shift) land mask in
  if shift = 0 then begin
    let old = slots.(idx) in
    slots.(idx) <- Leaf v;
    old
  end
  else
    match slots.(idx) with
    | Inner child -> insert_at child (shift - bits) k v
    | _ ->
        let child = Array.make fanout Empty in
        slots.(idx) <- Inner child;
        insert_at child (shift - bits) k v

let insert t k v =
  check k;
  while not (fits t k) do
    grow t
  done;
  let root =
    match t.root with
    | Inner slots -> slots
    | _ ->
        let slots = Array.make fanout Empty in
        t.root <- Inner slots;
        slots
  in
  match insert_at root (capacity_bits t.height - bits) k v with
  | Leaf old -> Some old
  | _ ->
      t.count <- t.count + 1;
      None

(* Unbinds [k] below [node]; returns the leaf it removed, or [Empty]. *)
let rec remove_at node shift k =
  match node with
  | Inner slots when shift > 0 ->
      remove_at slots.((k lsr shift) land mask) (shift - bits) k
  | Inner slots when shift = 0 ->
      let idx = k land mask in
      let old = slots.(idx) in
      slots.(idx) <- Empty;
      old
  | _ -> Empty

let remove t k =
  check k;
  if not (fits t k) then None
  else
    match remove_at t.root (capacity_bits t.height - bits) k with
    | Leaf v ->
        t.count <- t.count - 1;
        Some v
    | _ -> None

(* Greatest key ≤ k within [node]; [prefix] is the key bits above this
   subtree. *)
let rec floor_at node shift prefix k =
  match node with
  | Empty -> None
  | Leaf v -> Some (prefix, v)
  | Inner slots ->
      let limit_idx = (k lsr shift) land mask in
      let rec scan idx =
        if idx < 0 then None
        else
          (* Only the subtree at [limit_idx] is constrained by k's low
             bits; lower subtrees may take their maximum. *)
          let bound = if idx = limit_idx then k else max_int in
          match floor_at slots.(idx) (shift - bits) (prefix lor (idx lsl shift)) bound with
          | Some r -> Some r
          | None -> scan (idx - 1)
      in
      scan limit_idx

let find_floor t k =
  check k;
  let k = if fits t k then k else (1 lsl capacity_bits t.height) - 1 in
  floor_at t.root (capacity_bits t.height - bits) 0 k

let iter f t =
  let rec go node shift prefix =
    match node with
    | Empty -> ()
    | Leaf v -> f prefix v
    | Inner slots ->
        for idx = 0 to fanout - 1 do
          go slots.(idx) (shift - bits) (prefix lor (idx lsl shift))
        done
  in
  go t.root (capacity_bits t.height - bits) 0

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let depth t = t.height
