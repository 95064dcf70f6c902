module Waitq = struct
  type t = { waiters : (unit -> unit) Queue.t }

  let create () = { waiters = Queue.create () }

  let wait t = Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let signal t =
    match Queue.take_opt t.waiters with
    | None -> false
    | Some resume ->
        resume ();
        true

  let broadcast t =
    let n = Queue.length t.waiters in
    for _ = 1 to n do
      ignore (signal t)
    done;
    n
end

module Mutex = struct
  type t = {
    mutable locked : bool;
    waiters : (unit -> unit) Queue.t;
    acquire_cost : int64;
    mname : string;
  }

  let create ?(name = "mutex") ?(acquire_cost = 40L) () =
    { locked = false; waiters = Queue.create (); acquire_cost; mname = name }

  let lock ?(cat = Engine.Sys) t =
    Engine.delay ~cat t.acquire_cost;
    if t.locked then
      (* Ownership is transferred to us by [unlock]. *)
      Engine.suspend (fun resume -> Queue.add resume t.waiters)
    else t.locked <- true

  let unlock t =
    if not t.locked then invalid_arg (t.mname ^ ": unlock of unlocked mutex");
    match Queue.take_opt t.waiters with
    | Some resume -> resume () (* stays locked; waiter now owns it *)
    | None -> t.locked <- false

  let with_lock ?cat t f =
    lock ?cat t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

module Resource = struct
  type t = {
    capacity : int;
    mutable used : int;
    waiters : (unit -> unit) Queue.t;
    rname : string;
  }

  let create ?(name = "resource") ~capacity () =
    if capacity <= 0 then invalid_arg "Resource.create: capacity";
    { capacity; used = 0; waiters = Queue.create (); rname = name }

  let acquire t =
    if t.used < t.capacity then t.used <- t.used + 1
    else
      (* The slot is transferred to us by [release]. *)
      Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let release t =
    if t.used <= 0 then invalid_arg (t.rname ^ ": release without acquire");
    match Queue.take_opt t.waiters with
    | Some resume -> resume () (* slot handed over; [used] unchanged *)
    | None -> t.used <- t.used - 1

  let in_use t = t.used
end

module Ivar = struct
  type 'a t = { mutable v : 'a option; q : Waitq.t }

  let create () = { v = None; q = Waitq.create () }

  let fill t v =
    match t.v with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        t.v <- Some v;
        ignore (Waitq.broadcast t.q)

  let rec read t =
    match t.v with
    | Some v -> v
    | None ->
        Waitq.wait t.q;
        read t

  let is_filled t = t.v <> None
end
