(* One PTE word per vpn: the frame number above three flag bits.  A zero
   word is an absent translation. *)
let present = 1
let writable_bit = 2
let dirty_bit = 4
let flag_bits = 3
let no_frame = -1

type t = { mutable words : int array }

let create () = { words = Array.make 4096 0 }

let word t vpn =
  if vpn >= 0 && vpn < Array.length t.words then Array.unsafe_get t.words vpn
  else 0

let map t ~vpn ~pfn ~writable =
  if vpn < 0 || pfn < 0 then invalid_arg "Page_table.map";
  let n = Array.length t.words in
  if vpn >= n then begin
    let words = Array.make (max (2 * n) (vpn + 1)) 0 in
    Array.blit t.words 0 words 0 n;
    t.words <- words
  end;
  t.words.(vpn) <-
    (pfn lsl flag_bits) lor present lor if writable then writable_bit else 0

let unmap t ~vpn =
  let w = word t vpn in
  if w = 0 then no_frame
  else begin
    t.words.(vpn) <- 0;
    w lsr flag_bits
  end

let pfn t ~vpn =
  let w = word t vpn in
  if w = 0 then no_frame else w lsr flag_bits

let writable t ~vpn = word t vpn land writable_bit <> 0
let dirty t ~vpn = word t vpn land dirty_bit <> 0
let mapped t =
  Array.fold_left (fun n w -> if w = 0 then n else n + 1) 0 t.words

let set_writable t ~vpn w =
  let old = word t vpn in
  if old <> 0 then
    t.words.(vpn) <-
      (if w then old lor writable_bit else old land lnot writable_bit)

let set_dirty t ~vpn =
  let w = word t vpn in
  if w <> 0 then t.words.(vpn) <- w lor dirty_bit

(* Every simulated access runs this, so it reads the word itself rather
   than through [word]. *)
let walk t ~vpn ~write =
  let words = t.words in
  if vpn < 0 || vpn >= Array.length words then no_frame
  else
    let w = Array.unsafe_get words vpn in
    if w = 0 then no_frame
    else if not write then w lsr flag_bits
    else if w land writable_bit = 0 then no_frame
    else begin
      if w land dirty_bit = 0 then Array.unsafe_set words vpn (w lor dirty_bit);
      w lsr flag_bits
    end
