type kind = Clock | Fifo | Lru | Two_q | Random of int

let default_random_seed = 0x5eed

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "clock" -> Ok Clock
  | "fifo" -> Ok Fifo
  | "lru" -> Ok Lru
  | "2q" | "twoq" | "two_q" -> Ok Two_q
  | "random" -> Ok (Random default_random_seed)
  | s
    when String.length s > String.length "random:"
         && String.sub s 0 (String.length "random:") = "random:" -> (
      let tail =
        String.sub s (String.length "random:")
          (String.length s - String.length "random:")
      in
      match int_of_string_opt tail with
      | Some seed -> Ok (Random seed)
      | None -> Error (Printf.sprintf "bad random-policy seed %S" tail))
  | other ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected clock|fifo|lru|2q|random[:SEED])" other)

let kind_to_string = function
  | Clock -> "clock"
  | Fifo -> "fifo"
  | Lru -> "lru"
  | Two_q -> "2q"
  | Random seed ->
      if seed = default_random_seed then "random"
      else Printf.sprintf "random:%d" seed

let all_kinds = [ Clock; Fifo; Lru; Two_q; Random default_random_seed ]

(* Intrusive doubly-linked list over frame numbers: O(1) push/remove with
   no allocation, the same trick the paper's per-core structures use.
   Head is the eviction end, tail the recency end. *)
module Dll = struct
  type t = {
    next : int array;
    prev : int array;
    member : Bytes.t;
    mutable head : int;
    mutable tail : int;
    mutable len : int;
  }

  let create ~nframes =
    {
      next = Array.make nframes (-1);
      prev = Array.make nframes (-1);
      member = Bytes.make nframes '\000';
      head = -1;
      tail = -1;
      len = 0;
    }

  let mem t f = Bytes.unsafe_get t.member f <> '\000'

  let push_tail t f =
    Bytes.unsafe_set t.member f '\001';
    t.prev.(f) <- t.tail;
    t.next.(f) <- -1;
    if t.tail >= 0 then t.next.(t.tail) <- f else t.head <- f;
    t.tail <- f;
    t.len <- t.len + 1

  let push_head t f =
    Bytes.unsafe_set t.member f '\001';
    t.next.(f) <- t.head;
    t.prev.(f) <- -1;
    if t.head >= 0 then t.prev.(t.head) <- f else t.tail <- f;
    t.head <- f;
    t.len <- t.len + 1

  let remove t f =
    if mem t f then begin
      let p = t.prev.(f) and n = t.next.(f) in
      if p >= 0 then t.next.(p) <- n else t.head <- n;
      if n >= 0 then t.prev.(n) <- p else t.tail <- p;
      t.prev.(f) <- -1;
      t.next.(f) <- -1;
      Bytes.unsafe_set t.member f '\000';
      t.len <- t.len - 1
    end

  let pop_head t =
    if t.head < 0 then None
    else begin
      let f = t.head in
      remove t f;
      Some f
    end
end

(* Sampled-LRU keeps the active frames in a dense array (swap-remove) so
   drawing a uniform sample is O(1) regardless of cache occupancy. *)
type random_state = {
  rng : Sim.Rng.t;
  stamps : int array; (* 0 = never touched: prefetches lose every sample *)
  mutable stamp_clock : int;
  dense : int array;
  pos : int array; (* -1 = not resident *)
  mutable len : int;
}

let sample_k = 5

type state =
  | Sclock of Dstruct.Clock_lru.t
  | Sfifo of Dll.t
  | Slru of Dll.t
  | S2q of { a1 : Dll.t; am : Dll.t }
  | Srandom of random_state

type t = { kind : kind; costs : Hw.Costs.t; state : state }

let make costs ~nframes kind =
  let state =
    match kind with
    | Clock -> Sclock (Dstruct.Clock_lru.create ~nframes)
    | Fifo -> Sfifo (Dll.create ~nframes)
    | Lru -> Slru (Dll.create ~nframes)
    | Two_q -> S2q { a1 = Dll.create ~nframes; am = Dll.create ~nframes }
    | Random seed ->
        Srandom
          {
            rng = Sim.Rng.create seed;
            stamps = Array.make nframes 0;
            stamp_clock = 0;
            dense = Array.make nframes 0;
            pos = Array.make nframes (-1);
            len = 0;
          }
  in
  { kind; costs; state }

let kind t = t.kind

let stamp r f =
  r.stamp_clock <- r.stamp_clock + 1;
  r.stamps.(f) <- r.stamp_clock

let touch t f =
  let c = t.costs in
  match t.state with
  | Sclock lru ->
      Dstruct.Clock_lru.touch lru f;
      c.Hw.Costs.lru_update
  | Sfifo _ -> 0L
  | Slru q ->
      if Dll.mem q f then begin
        Dll.remove q f;
        Dll.push_tail q f;
        Int64.mul 2L c.Hw.Costs.lru_update
      end
      else 0L
  | S2q { a1; am } ->
      if Dll.mem am f then begin
        Dll.remove am f;
        Dll.push_tail am f;
        c.Hw.Costs.lru_update
      end
      else if Dll.mem a1 f then begin
        (* re-reference while on probation: promote to the protected
           main queue — the 2Q rule that defeats one-shot scans *)
        Dll.remove a1 f;
        Dll.push_tail am f;
        Int64.mul 2L c.Hw.Costs.lru_update
      end
      else 0L
  | Srandom r ->
      if r.pos.(f) >= 0 then begin
        stamp r f;
        c.Hw.Costs.lru_update
      end
      else 0L

let note_insert t f ~touched =
  match t.state with
  | Sclock lru ->
      Dstruct.Clock_lru.set_active lru f true;
      if touched then Dstruct.Clock_lru.touch lru f
  | Sfifo q -> if not (Dll.mem q f) then Dll.push_tail q f
  | Slru q ->
      if not (Dll.mem q f) then
        if touched then Dll.push_tail q f else Dll.push_head q f
  | S2q { a1; am } ->
      if not (Dll.mem a1 f || Dll.mem am f) then Dll.push_tail a1 f
  | Srandom r ->
      if r.pos.(f) < 0 then begin
        r.pos.(f) <- r.len;
        r.dense.(r.len) <- f;
        r.len <- r.len + 1;
        if touched then stamp r f else r.stamps.(f) <- 0
      end

let random_remove r f =
  let p = r.pos.(f) in
  if p >= 0 then begin
    let last = r.dense.(r.len - 1) in
    r.dense.(p) <- last;
    r.pos.(last) <- p;
    r.pos.(f) <- -1;
    r.len <- r.len - 1;
    r.stamps.(f) <- 0
  end

let note_remove t f =
  match t.state with
  | Sclock lru -> Dstruct.Clock_lru.set_active lru f false
  | Sfifo q | Slru q -> Dll.remove q f
  | S2q { a1; am } ->
      Dll.remove a1 f;
      Dll.remove am f
  | Srandom r -> random_remove r f

let retire t f =
  match t.state with
  | Sclock lru -> Dstruct.Clock_lru.retire lru f
  | _ -> note_remove t f

let is_active t f =
  match t.state with
  | Sclock lru -> Dstruct.Clock_lru.is_active lru f
  | Sfifo q | Slru q -> Dll.mem q f
  | S2q { a1; am } -> Dll.mem a1 f || Dll.mem am f
  | Srandom r -> r.pos.(f) >= 0

let active_count t =
  match t.state with
  | Sclock lru -> Dstruct.Clock_lru.active_count lru
  | Sfifo q | Slru q -> q.Dll.len
  | S2q { a1; am } -> a1.Dll.len + am.Dll.len
  | Srandom r -> r.len

let evict_candidates t n =
  let c = t.costs in
  match t.state with
  | Sclock lru -> (Dstruct.Clock_lru.evict_candidates lru n, 0L)
  | Sfifo q | Slru q ->
      let victims = ref [] and cost = ref 0L and found = ref 0 in
      let continue_ = ref true in
      while !continue_ && !found < n do
        match Dll.pop_head q with
        | None -> continue_ := false
        | Some f ->
            victims := f :: !victims;
            incr found;
            cost := Int64.add !cost c.Hw.Costs.freelist_op
      done;
      (List.rev !victims, !cost)
  | S2q { a1; am } ->
      let victims = ref [] and cost = ref 0L and found = ref 0 in
      let continue_ = ref true in
      while !continue_ && !found < n do
        (* keep the probationary queue at ~1/4 of residents: evict from
           a1 while it is above target, else from the main queue *)
        let from_a1 =
          a1.Dll.len > 0
          && (am.Dll.len = 0 || 4 * a1.Dll.len >= a1.Dll.len + am.Dll.len)
        in
        let victim =
          if from_a1 then Dll.pop_head a1
          else
            match Dll.pop_head am with
            | Some f -> Some f
            | None -> Dll.pop_head a1
        in
        match victim with
        | None -> continue_ := false
        | Some f ->
            victims := f :: !victims;
            incr found;
            cost := Int64.add !cost c.Hw.Costs.freelist_op
      done;
      (List.rev !victims, !cost)
  | Srandom r ->
      let victims = ref [] and cost = ref 0L and found = ref 0 in
      while !found < n && r.len > 0 do
        let best = ref r.dense.(Sim.Rng.int r.rng r.len) in
        cost := Int64.add !cost c.Hw.Costs.lru_update;
        for _ = 2 to sample_k do
          let cand = r.dense.(Sim.Rng.int r.rng r.len) in
          cost := Int64.add !cost c.Hw.Costs.lru_update;
          if r.stamps.(cand) < r.stamps.(!best) then best := cand
        done;
        let f = !best in
        random_remove r f;
        victims := f :: !victims;
        incr found
      done;
      (List.rev !victims, !cost)
