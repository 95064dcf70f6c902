(* Binary min-heap keyed by (time, seq), with payloads held off-heap.

   The heap proper is three plain [int array]s indexed by heap position:
   [times] and [seqs] hold the key, [slots] the index of the entry's
   payload in [vals].  A sift moves only those immediates, so it never
   goes through the write barrier, and each level chooses between two
   children with one key compare.  A payload is written once on push
   and read once on pop.

   Positions [len, cap) of [slots] are the free-slot stack: [slots] is
   always a permutation of [0, cap), a push takes the slot sitting at
   position [len], and a pop leaves its freed slot at the position the
   heap gave up.  A freed slot is reset to [dummy] so the queue does not
   keep a popped payload alive.  Keys are unique in every caller, so the
   pop order is the key order whatever the heap shape. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  { times = [||]; seqs = [||]; slots = [||]; vals = [||]; len = 0; dummy }

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let widen a = Array.append a (Array.make (ncap - cap) 0) in
  t.times <- widen t.times;
  t.seqs <- widen t.seqs;
  t.slots <- Array.append t.slots (Array.init (ncap - cap) (fun i -> cap + i));
  t.vals <- Array.append t.vals (Array.make (ncap - cap) t.dummy)

let push t ~time ~seq v =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let s = slots.(t.len) in
  t.vals.(s) <- v;
  (* sift up with a hole: parents move down, the new key is written once *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else continue_ := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- s

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
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let freed = slots.(0) in
    out.s_time <- times.(0);
    out.s_seq <- seqs.(0);
    out.s_val <- t.vals.(freed);
    t.vals.(freed) <- t.dummy;
    let n = t.len - 1 in
    t.len <- n;
    (* move the last entry into the root hole and sift it down *)
    let time = times.(n) and seq = seqs.(n) and s = slots.(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let m =
          if r < n then
            let lt = times.(l) and rt = times.(r) in
            if rt < lt || (rt = lt && seqs.(r) < seqs.(l)) then r else l
          else l
        in
        let mt = times.(m) in
        if mt < time || (mt = time && seqs.(m) < seq) then begin
          times.(!i) <- mt;
          seqs.(!i) <- seqs.(m);
          slots.(!i) <- slots.(m);
          i := m
        end
        else continue_ := false
      end
    done;
    if n > 0 then begin
      times.(!i) <- time;
      seqs.(!i) <- seq;
      slots.(!i) <- s
    end;
    slots.(n) <- freed;
    true
  end
