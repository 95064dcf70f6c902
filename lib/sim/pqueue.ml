(* Structure-of-arrays 4-ary min-heap keyed by (time, seq).

   Times and sequence numbers live in plain [int array]s, so the hot
   push/pop path never allocates and never chases a per-entry box: virtual
   time fits comfortably in OCaml's 62-bit immediate integers.  A 4-ary
   layout halves the tree depth of a binary heap, trading a couple of
   extra compares per level for far fewer cache lines touched. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t v =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nt = Array.make ncap 0 and ns = Array.make ncap 0 in
  (* seeding with [v] keeps ['a] unconstrained; stale slots past [len]
     are overwritten before they are ever read *)
  let nv = Array.make ncap v in
  Array.blit t.times 0 nt 0 t.len;
  Array.blit t.seqs 0 ns 0 t.len;
  Array.blit t.vals 0 nv 0 t.len;
  t.times <- nt;
  t.seqs <- ns;
  t.vals <- nv

let push t ~time ~seq v =
  if t.len = Array.length t.times then grow t v;
  (* sift up with a hole: parents move down, the new key is written once *)
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
    else continue_ := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- v

(* Move the last element into the root hole and sift it down. *)
let remove_min t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and vals = t.vals in
    let time = times.(n) and seq = seqs.(n) in
    let v = vals.(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let base = (4 * !i) + 1 in
      if base >= n then continue_ := false
      else begin
        (* smallest of up to four children *)
        let m = ref base in
        let last = min (base + 3) (n - 1) in
        for c = base + 1 to last do
          let ct = times.(c) and mt = times.(!m) in
          if ct < mt || (ct = mt && seqs.(c) < seqs.(!m)) then m := c
        done;
        let mt = times.(!m) in
        if mt < time || (mt = time && seqs.(!m) < seq) then begin
          times.(!i) <- mt;
          seqs.(!i) <- seqs.(!m);
          vals.(!i) <- vals.(!m);
          i := !m
        end
        else continue_ := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    vals.(!i) <- v
  end

let pop t =
  if t.len = 0 then None
  else begin
    let r = (t.times.(0), t.seqs.(0), t.vals.(0)) in
    remove_min t;
    Some r
  end

(* Allocation-free head key for the engine's fast-path guard. *)
let min_time t = if t.len = 0 then max_int else t.times.(0)

(* Reusable out-cell for the engine's drain loop: popping through a slot
   moves the head key and payload into caller-owned mutable fields, so
   the per-event cost is three stores — no [(int * int * 'a) option]
   box, no tuple. *)

type 'a slot = { mutable s_time : int; mutable s_seq : int; mutable s_val : 'a }

let slot ~dummy = { s_time = 0; s_seq = 0; s_val = dummy }

let pop_into t out ~before =
  if t.len = 0 || t.times.(0) >= before then false
  else begin
    out.s_time <- t.times.(0);
    out.s_seq <- t.seqs.(0);
    out.s_val <- t.vals.(0);
    remove_min t;
    true
  end
