(* A costbuf holds a handful of distinct labels (the fault path uses ~6),
   so a flat array scanned with a physical-equality check — call sites
   pass literals — beats hashing.  Cycles accumulate as unboxed ints. *)

type t = {
  mutable keys : string array;
  mutable vals : int array;
  mutable len : int;
  mutable sum : int;
}

let create () = { keys = Array.make 8 ""; vals = Array.make 8 0; len = 0; sum = 0 }

let add t label c =
  let c = Int64.to_int c in
  if c > 0 then begin
    t.sum <- t.sum + c;
    let keys = t.keys in
    let n = t.len in
    let i = ref 0 in
    while
      !i < n && not (keys.(!i) == label || String.equal keys.(!i) label)
    do
      incr i
    done;
    if !i < n then t.vals.(!i) <- t.vals.(!i) + c
    else begin
      if n = Array.length keys then begin
        let nk = Array.make (2 * n) "" and nv = Array.make (2 * n) 0 in
        Array.blit t.keys 0 nk 0 n;
        Array.blit t.vals 0 nv 0 n;
        t.keys <- nk;
        t.vals <- nv
      end;
      t.keys.(n) <- label;
      t.vals.(n) <- c;
      t.len <- n + 1
    end
  end

let total t = Int64.of_int t.sum

let charge ?(cat = Engine.Sys) t =
  if t.sum > 0 then begin
    Engine.delay_parts ~cat t.keys t.vals t.len;
    t.len <- 0;
    t.sum <- 0
  end
