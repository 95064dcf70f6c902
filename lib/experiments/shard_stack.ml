(* Shard-owned partitioned experiment state for free-running clusters.

   One logical cache is split into [homes] fixed arenas (an
   [Mcache.Partition] built at collection time); home [h] is owned by
   the server fiber running on cluster shard [h mod N].  Decoupling the
   logical home count from the physical shard count N is what makes the
   virtual-time schedule N-invariant: pages route by [page mod homes],
   requests carry merge keys derived only from the requester's clock and
   id, and the servers execute them in key order — so the same requests
   hit the same arenas in the same order whatever N is, and whether the
   cluster free-runs on N domains or replays deterministically on one.

   Transport is function shipping over [Sim.Shard.post]: a requester at
   time [t] posts its operation to the owning shard at [t + lookahead]
   (the cluster's conservative promise; >= the model's
   [Hw.Costs.min_cross_shard_latency]), the home server executes it —
   charging all cache/device costs on the home's engine — and posts the
   reply back at [t' + lookahead].  Every request pays the hop, even
   when requester and home share a shard: charging the same latency on
   the local path is the price of N-invariance, exactly the discipline
   the deterministic-merge contract demands.

   The per-home pending queue is a [Sim.Pqueue] ordered by [(at,
   requester core, requester ordinal)], the last two packed into its
   sequence number.  A server only pops entries with [at] strictly in
   the past: the conservative promise guarantees every event with a
   timestamp below the shard's clock has already been delivered, so
   popping [at < now] (and idle-waiting to [at + 1] otherwise) makes the
   service order a pure function of the request keys — arrival races
   between domains can never reorder it.

   Mutation discipline (what makes this safe across domains with no
   locks): each [home] record is written only by its owning shard after
   the build barrier; requester-side counters are per-core single-writer
   arrays; closures cross domains only through [Sim.Shard]'s outboxes,
   which the window barrier's atomic arrival counter publishes. *)

module Pagekey = Mcache.Pagekey

type home = {
  hid : int;
  mutable arena : Mcache.Dram_cache.t option; (* set by [attach] on the owner *)
  pending : (Sim.Shard.t -> unit) Sim.Pqueue.t;
      (* ops keyed by (at, rcore and ord packed); owner-only *)
  mutable wake : (unit -> unit) option; (* parked server's resume *)
  mutable served : int;
}

(* The requester ordinal takes the low [ord_bits] of a pending entry's
   sequence number and the requester core the bits above, up to the sign
   bit, so integer order on the sequence is (rcore, ord) order.  [create]
   bounds the cores and [ship] the ordinals. *)
let ord_bits = 40
let rcore_bits = Sys.int_size - 1 - ord_bits

type t = {
  nhomes : int;
  la : int64;
  homes : home array;
  ords : int array; (* per requester core, single-writer *)
  local_ops : int array; (* requests whose home shares the requester's shard *)
  remote_ops : int array; (* requests that crossed shards *)
}

let create ~homes ~cores ~lookahead () =
  if homes < 1 then invalid_arg "Shard_stack.create: homes must be >= 1";
  if cores < 1 then invalid_arg "Shard_stack.create: cores must be >= 1";
  if cores > 1 lsl rcore_bits then
    invalid_arg
      (Printf.sprintf "Shard_stack.create: cores must be <= 2^%d" rcore_bits);
  if Int64.compare lookahead 1L < 0 then
    invalid_arg "Shard_stack.create: lookahead must be >= 1";
  {
    nhomes = homes;
    la = lookahead;
    homes =
      Array.init homes (fun hid ->
          {
            hid;
            arena = None;
            pending = Sim.Pqueue.create ~dummy:ignore;
            wake = None;
            served = 0;
          });
    ords = Array.make cores 0;
    local_ops = Array.make cores 0;
    remote_ops = Array.make cores 0;
  }

let homes t = t.nhomes
let lookahead t = t.la

let home_of t ~page =
  let h = page mod t.nhomes in
  if h < 0 then h + t.nhomes else h

let arena_exn hr =
  match hr.arena with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Shard_stack: home %d not attached" hr.hid)

(* Arena ops always run as core 0 of the home's own private stack: every
   machine has a core 0, and a fixed choice keeps the schedule a pure
   function of the request stream at any shard count. *)
let serve_core = 0

(* The home server: a daemon fiber that drains its pending queue in
   merge-key order.  Parked (empty queue) it holds no engine event, so a
   finished cluster drains; the enqueue path wakes it. *)
let spawn_server sh hr =
  let eng = Sim.Shard.engine sh in
  let next = Sim.Pqueue.slot ~dummy:ignore in
  ignore
    (Sim.Engine.spawn eng
       ~name:(Printf.sprintf "home-%d" hr.hid)
       ~core:hr.hid ~daemon:true
       (fun () ->
         let rec loop () =
           let now = Int64.to_int (Sim.Engine.now_f ()) in
           if Sim.Pqueue.pop_into hr.pending next ~before:now then begin
             let op = next.Sim.Pqueue.s_val in
             next.Sim.Pqueue.s_val <- ignore;
             op sh;
             hr.served <- hr.served + 1
           end
           else begin
             let at = Sim.Pqueue.min_time hr.pending in
             if at = max_int then
               Sim.Engine.suspend (fun resume -> hr.wake <- Some resume)
             else
               (* strictly-past pops only: once [now > at], every
                  request timestamped [at] is guaranteed enqueued *)
               Sim.Engine.idle_wait (Int64.of_int (at + 1 - now))
           end;
           loop ()
         in
         loop ()))

let attach t sh ~make_arena =
  let nsh = Sim.Shard.shards sh in
  let sid = Sim.Shard.sid sh in
  for hid = 0 to t.nhomes - 1 do
    if hid mod nsh = sid then begin
      let hr = t.homes.(hid) in
      hr.arena <- Some (make_arena ~home:hid);
      spawn_server sh hr
    end
  done

(* Ship a batch of [(home, body)] jobs and block the calling fiber until
   every reply lands.  Pipelined: all requests post at the same
   timestamp, replies count down a shared remaining counter (which lives
   on — and is only touched by — the requester's shard). *)
let ship t sh ~core jobs =
  match jobs with
  | [] -> ()
  | _ ->
      let eng = Sim.Shard.engine sh in
      let rs = Sim.Shard.sid sh in
      let nsh = Sim.Shard.shards sh in
      let remaining = ref (List.length jobs) in
      let resume_ref = ref None in
      let at64 = Int64.add (Sim.Engine.now eng) t.la in
      let at = Int64.to_int at64 in
      let wait_sid = ref (-1) in
      List.iter
        (fun (hid, body) ->
          let hr = t.homes.(hid) in
          let target = hid mod nsh in
          if target = rs then t.local_ops.(core) <- t.local_ops.(core) + 1
          else begin
            t.remote_ops.(core) <- t.remote_ops.(core) + 1;
            if !wait_sid < 0 then wait_sid := target
          end;
          let ord = t.ords.(core) in
          if ord lsr ord_bits <> 0 then
            invalid_arg
              (Printf.sprintf "Shard_stack.ship: core %d used 2^%d ordinals"
                 core ord_bits);
          let seq = (core lsl ord_bits) lor ord in
          t.ords.(core) <- ord + 1;
          let op ssh =
            body (arena_exn hr);
            let rat =
              Int64.add (Sim.Engine.now (Sim.Shard.engine ssh)) t.la
            in
            Sim.Shard.post ssh ~to_:rs ~at:rat (fun _ ->
                decr remaining;
                if !remaining = 0 then
                  match !resume_ref with
                  | Some r ->
                      resume_ref := None;
                      r ()
                  | None -> ())
          in
          Sim.Shard.post sh ~to_:target ~at:at64 (fun _ ->
              Sim.Pqueue.push hr.pending ~time:at ~seq op;
              match hr.wake with
              | Some r ->
                  hr.wake <- None;
                  r ()
              | None -> ()))
        jobs;
      let ctx = Sim.Engine.self () in
      if !wait_sid >= 0 then Sim.Engine.set_waiting_on ctx !wait_sid;
      Sim.Engine.suspend (fun resume -> resume_ref := Some resume)

let fault_many t sh ~core items =
  ship t sh ~core
    (List.map
       (fun (key, vpn, write) ->
         let hid = home_of t ~page:(Pagekey.page_of key) in
         ( hid,
           fun arena ->
             Mcache.Dram_cache.fault arena ~core:serve_core ~key ~vpn ~write () ))
       items)

let fault t sh ~core ~key ~vpn ~write = fault_many t sh ~core [ (key, vpn, write) ]

let msync_all t sh ~core =
  ship t sh ~core
    (List.init t.nhomes (fun hid ->
         (hid, fun arena -> Mcache.Dram_cache.msync arena ~core:serve_core ())))

let partition t =
  Mcache.Partition.create ~arenas:(Array.map arena_exn t.homes) ()

type stats = {
  homes_n : int;
  counters : Mcache.Partition.counters;
  served : int array;
  local_ops : int;
  remote_ops : int;
}

let stats t =
  {
    homes_n = t.nhomes;
    counters = Mcache.Partition.counters (partition t);
    served = Array.map (fun (hr : home) -> hr.served) t.homes;
    local_ops = Array.fold_left ( + ) 0 t.local_ops;
    remote_ops = Array.fold_left ( + ) 0 t.remote_ops;
  }

(* N-invariant one-line rendering: every field is a pure function of the
   request streams (local vs remote split is not, so only the total ops
   count appears).  CI's terminal-stats gates compare these lines
   byte-for-byte across shard counts and modes. *)
let stats_to_string s =
  Printf.sprintf "homes=%d ops=%d served=[%s] %s" s.homes_n
    (s.local_ops + s.remote_ops)
    (String.concat ";" (Array.to_list (Array.map string_of_int s.served)))
    (Mcache.Partition.counters_to_string s.counters)
