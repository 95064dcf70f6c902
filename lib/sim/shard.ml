(* Conservative parallel discrete-event simulation (PDES) on OCaml 5
   domains.

   A cluster runs N shards, each a full single-queue [Engine] owned by
   one domain.  Shards free-run in lockstepped windows: every window the
   cluster agrees on the global minimum next-event time T, then each
   shard executes its local events in [T, T + lookahead) without any
   further coordination.  The lookahead is the Chandy–Misra–Bryant
   promise: no shard may inject an event into another shard less than
   [lookahead] cycles after its own current time, so nothing a peer does
   during the window can land inside the window — see
   [Hw.Costs.min_cross_shard_latency] for the model-derived floor.

   One barrier per window.  After its run phase a shard writes two
   values into the window's parity slot — its engine's next-event time
   and the earliest timestamp it posted this window — then arrives at
   the barrier.  Every shard leaves the barrier, reads the whole slot
   and starts the next window at the minimum over both columns: exactly
   the minimum the shards' engines would report after delivering those
   posts, without a second barrier to deliver them first.

   Cross-shard events travel through outboxes, one per (source, target)
   pair and window parity.  Each has a single writer (the source, during
   its run phase) and a single reader (the target, at the top of the
   next window), and the barrier between them orders the two, so the
   post path takes no lock and touches no shared atomic.  Double
   buffering by parity is what lets one barrier suffice: a source
   running window W+1 fills the other parity while its targets are
   still draining window W's outboxes, and it cannot reach window W+2
   (the same parity again) before every target has crossed the W+1
   barrier, i.e. finished that drain.  The slots reuse the same
   argument.

   Each post carries a deterministic merge key [(at, source shard,
   source ordinal)], and a drain delivers in sorted key order, so the
   receiving engine assigns the same (time, seq) schedule on every run.
   Delivery stays at the top of window W+1 for a post made in window W:
   the lookahead promise puts its timestamp at or past W's horizon, so
   no earlier delivery point could change what the target executes, and
   a later one would land events behind the target's clock.

   The barrier is an arrival counter that never resets: the k-th
   crossing (the first follows the build) completes once it reaches
   [n * k], so consecutive crossings cannot tangle.  Waiters spin with
   [Domain.cpu_relax] when the shards fit the cores, then park on a
   condition variable.  A spun wait costs well under a microsecond where a
   futex sleep and wake costs tens of microseconds — the per-window work
   on the sharded experiments — but spinning against a descheduled peer
   only burns the core that peer needs.  So each shard adapts its own
   spin budget to how its recent waits ended: doubled after a wait that
   spinning covered, halved after one that had to park.  With more
   shards than cores nobody spins at all.

   [deterministic] mode runs the same window step on the calling domain,
   shards in ascending sid order — byte-for-byte the schedule of the
   free-running mode, single-threaded.  Tests compare the two to prove
   the parallel run honest. *)

module Bar = struct
  type t = {
    arrived : int Atomic.t; (* arrivals since the run began *)
    parked : int Atomic.t; (* waiters asleep on [wake] *)
    lock : Mutex.t;
    wake : Condition.t;
    spin : bool; (* the shards fit the cores *)
  }

  (* Spin budgets, in [Domain.cpu_relax] rounds of a few tens of
     nanoseconds: from ~2 us, so a parked shard still notices when
     spinning would have paid, to ~0.6 ms, beyond which a futex wake is
     cheap by comparison. *)
  let min_spin = 64
  let max_spin = 1 lsl 14
  let init_spin = 1 lsl 10

  let create n =
    {
      arrived = Atomic.make 0;
      parked = Atomic.make 0;
      lock = Mutex.create ();
      wake = Condition.create ();
      spin = n <= Domain.recommended_domain_count ();
    }

  (* Arrive, then return once the counter reaches [target].  The last
     arriver wakes sleepers only if there are any; a sleeper registers in
     [parked] under the lock before its final check of the counter, so
     either the last arriver sees it or it sees the last arrival.
     [budget] is the caller's own spin budget, adapted here. *)
  let await b ~target budget =
    if Atomic.fetch_and_add b.arrived 1 + 1 = target then begin
      if Atomic.get b.parked > 0 then begin
        Mutex.lock b.lock;
        Condition.broadcast b.wake;
        Mutex.unlock b.lock
      end
    end
    else begin
      let spins = ref (if b.spin then !budget else 0) in
      while !spins > 0 && Atomic.get b.arrived < target do
        Domain.cpu_relax ();
        decr spins
      done;
      if Atomic.get b.arrived >= target then
        budget := min max_spin (2 * !budget)
      else begin
        Mutex.lock b.lock;
        Atomic.incr b.parked;
        while Atomic.get b.arrived < target do
          Condition.wait b.wake b.lock
        done;
        Atomic.decr b.parked;
        Mutex.unlock b.lock;
        budget := max min_spin (!budget / 2)
      end
    end
end

type t = {
  sid : int;
  eng : Engine.t;
  cl : cluster;
  mutable par : int; (* parity of the window being built (1) or run *)
  mutable out_ord : int; (* cross-shard posts made so far *)
  mutable first_post : int; (* earliest timestamp posted this window *)
  mutable drained : int;
}

and item = { at : int; src : int; ord : int; fn : t -> unit }

and cluster = {
  n : int;
  la : int;
  out : item list array; (* [(par * n + src) * n + dst], newest first *)
  next : int array; (* [par * n + sid]: engine next-event time, max_int = none *)
  first : int array; (* [par * n + sid]: earliest timestamp posted *)
  handles : t option array;
  fails : (exn * Printexc.raw_backtrace) option array;
  wait_s : float array; (* owner-written *)
  busy_s : float array; (* owner-written *)
  bar : Bar.t;
}

type stats = {
  shards : int;
  lookahead : int;
  events : int;
  final_cycles : int64;
  cross_posts : int;
  windows : int;
  run_wall_s : float;
  shard_events : int array;
  shard_drains : int array;
  wait_s : float array;
  busy_s : float array;
}

let sid sh = sh.sid
let engine sh = sh.eng
let shards sh = sh.cl.n
let lookahead sh = Int64.of_int sh.cl.la

let post sh ~to_ ~at f =
  let cl = sh.cl in
  if to_ < 0 || to_ >= cl.n then
    invalid_arg (Printf.sprintf "Shard.post: target %d outside [0, %d)" to_ cl.n);
  let at = Int64.to_int at in
  if to_ = sh.sid then
    (* Local delivery needs no promise: the event merges into this
       shard's own queue under the normal (time, seq) order. *)
    Engine.post sh.eng ~at:(Int64.of_int at) (fun () -> f sh)
  else begin
    let now = Int64.to_int (Engine.now sh.eng) in
    if at < now + cl.la then
      invalid_arg
        (Printf.sprintf
           "Shard.post: timestamp %d violates lookahead %d (shard %d at %d): \
            cross-shard events must land >= now + lookahead"
           at cl.la sh.sid now);
    sh.out_ord <- sh.out_ord + 1;
    if at < sh.first_post then sh.first_post <- at;
    let i = (((sh.par * cl.n) + sh.sid) * cl.n) + to_ in
    cl.out.(i) <- { at; src = sh.sid; ord = sh.out_ord; fn = f } :: cl.out.(i)
  end

(* Empty every outbox of parity [par] addressed to [dst]. *)
let take cl dst ~par =
  let items = ref [] in
  for src = 0 to cl.n - 1 do
    let i = (((par * cl.n) + src) * cl.n) + dst in
    match cl.out.(i) with
    | [] -> ()
    | l ->
        cl.out.(i) <- [];
        items := List.rev_append l !items
  done;
  !items

(* Deliver the previous window's posts to this shard's engine, in
   merge-key order.  Source ordinals are deterministic (each shard's
   simulation is), so the delivery order — and the seq numbers the
   engine assigns — never depends on domain timing. *)
let drain cl sh ~par =
  match take cl sh.sid ~par with
  | [] -> ()
  | items ->
      sh.drained <- sh.drained + List.length items;
      let items =
        List.sort
          (fun a b ->
            if a.at <> b.at then Int.compare a.at b.at
            else if a.src <> b.src then Int.compare a.src b.src
            else Int.compare a.ord b.ord)
          items
      in
      List.iter
        (fun it -> Engine.post sh.eng ~at:(Int64.of_int it.at) (fun () -> it.fn sh))
        items

let fail cl sid e = cl.fails.(sid) <- Some (e, Printexc.get_raw_backtrace ())

(* Write this shard's half of parity slot [par].  A failed shard has no
   next event, but what it posted before failing is still delivered. *)
let publish cl sid ~par =
  let i = (par * cl.n) + sid in
  match cl.handles.(sid) with
  | None ->
      cl.next.(i) <- max_int;
      cl.first.(i) <- max_int
  | Some sh ->
      cl.next.(i) <-
        (if cl.fails.(sid) = None then Engine.next_time sh.eng else max_int);
      cl.first.(i) <- sh.first_post;
      sh.first_post <- max_int

(* Start time of the window after one of parity [par]. *)
let global_min cl ~par =
  let m = ref max_int in
  for i = par * cl.n to (par * cl.n) + cl.n - 1 do
    if cl.next.(i) < !m then m := cl.next.(i);
    if cl.first.(i) < !m then m := cl.first.(i)
  done;
  !m

let horizon_of cl t = if t > max_int - cl.la then max_int else t + cl.la

(* Window [w] of shard [sid], starting at [t]: deliver window w-1's
   posts, run [t, t + lookahead), publish.  A failed shard — its builder
   or one of its fibers raised — only empties its outboxes, so it keeps
   the protocol alive as a drained shard and the exception re-raises
   after the cluster finishes. *)
let step cl sid ~w ~t =
  let par = w land 1 in
  (match cl.handles.(sid) with
  | Some sh when cl.fails.(sid) = None -> (
      sh.par <- par;
      try
        drain cl sh ~par:(1 - par);
        Engine.run_until sh.eng ~horizon:(horizon_of cl t)
      with e -> fail cl sid e)
  | _ -> ignore (take cl sid ~par:(1 - par)));
  publish cl sid ~par

(* Create shard [sid] and run its builder, which posts as window -1
   (parity 1, drained at the top of window 0). *)
let make_shard cl ~seed sid build =
  (try
     let eng = Engine.create ~seed:(seed + (7919 * sid)) () in
     let sh =
       { sid; eng; cl; par = 1; out_ord = 0; first_post = max_int; drained = 0 }
     in
     cl.handles.(sid) <- Some sh;
     build sh
   with e -> fail cl sid e);
  publish cl sid ~par:1

(* Free-running life of shard [sid] after the post-build barrier: the
   window count, which every shard computes identically. *)
let free_loop cl sid =
  let budget = ref Bar.init_spin in
  let wait = ref 0. and busy = ref 0. in
  let rec go w t0 =
    let t = global_min cl ~par:(1 - (w land 1)) in
    if t = max_int then w
    else begin
      step cl sid ~w ~t;
      let t1 = Unix.gettimeofday () in
      Bar.await cl.bar ~target:(cl.n * (w + 2)) budget;
      let t2 = Unix.gettimeofday () in
      busy := !busy +. (t1 -. t0);
      wait := !wait +. (t2 -. t1);
      go (w + 1) t2
    end
  in
  let windows = go 0 (Unix.gettimeofday ()) in
  cl.wait_s.(sid) <- !wait;
  cl.busy_s.(sid) <- !busy;
  windows

(* The same windows on the calling domain, shards in ascending sid
   order. *)
let det_loop cl =
  let rec go w =
    let t = global_min cl ~par:(1 - (w land 1)) in
    if t = max_int then w
    else begin
      let t0 = ref (Unix.gettimeofday ()) in
      for sid = 0 to cl.n - 1 do
        step cl sid ~w ~t;
        let t1 = Unix.gettimeofday () in
        cl.busy_s.(sid) <- cl.busy_s.(sid) +. (t1 -. !t0);
        t0 := t1
      done;
      go (w + 1)
    end
  in
  go 0

let reraise_first_failure cl =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    cl.fails

let collect_stats cl ~windows ~run_wall_s =
  let per_shard f = Array.map (function Some sh -> f sh | None -> 0) cl.handles in
  let shard_events = per_shard (fun sh -> Engine.events sh.eng) in
  {
    shards = cl.n;
    lookahead = cl.la;
    events = Array.fold_left ( + ) 0 shard_events;
    final_cycles =
      Array.fold_left
        (fun m -> function Some sh -> max m (Engine.now sh.eng) | None -> m)
        0L cl.handles;
    cross_posts = Array.fold_left ( + ) 0 (per_shard (fun sh -> sh.out_ord));
    windows;
    run_wall_s;
    shard_events;
    shard_drains = per_shard (fun sh -> sh.drained);
    wait_s = Array.copy cl.wait_s;
    busy_s = Array.copy cl.busy_s;
  }

let run ?(deterministic = false) ?(seed = 42) ~shards:n ~lookahead build =
  if n < 1 then invalid_arg "Shard.run: shards must be >= 1";
  let la = Int64.to_int lookahead in
  if la < 1 then invalid_arg "Shard.run: lookahead must be >= 1 cycle";
  let cl =
    {
      n;
      la;
      out = Array.make (2 * n * n) [];
      next = Array.make (2 * n) max_int;
      first = Array.make (2 * n) max_int;
      handles = Array.make n None;
      fails = Array.make n None;
      wait_s = Array.make n 0.;
      busy_s = Array.make n 0.;
      bar = Bar.create n;
    }
  in
  if deterministic || n = 1 then begin
    for sid = 0 to n - 1 do
      make_shard cl ~seed sid build
    done;
    let t0 = Unix.gettimeofday () in
    let windows = det_loop cl in
    let dt = Unix.gettimeofday () -. t0 in
    reraise_first_failure cl;
    collect_stats cl ~windows ~run_wall_s:dt
  end
  else begin
    (* Workers build their own engine so metric cells, trace buffers and
       the ambient-engine DLS slot land on the owning domain, then meet
       at the post-build barrier.  Shard 0 (this domain) stamps wall
       time after that barrier and after the last window, so the
       reported seconds cover the windowed run only — not Domain.spawn,
       stack construction, or join/teardown. *)
    let t0 = ref 0. and t1 = ref 0. and windows = ref 0 in
    let body sid =
      make_shard cl ~seed sid build;
      Bar.await cl.bar ~target:n (ref Bar.init_spin);
      if sid = 0 then t0 := Unix.gettimeofday ();
      let w = free_loop cl sid in
      if sid = 0 then begin
        t1 := Unix.gettimeofday ();
        windows := w
      end
    in
    let doms =
      List.init (n - 1) (fun i ->
          Domain.spawn (fun () -> try body (i + 1) with e -> fail cl (i + 1) e))
    in
    (try body 0 with e -> fail cl 0 e);
    List.iter Domain.join doms;
    reraise_first_failure cl;
    collect_stats cl ~windows:!windows ~run_wall_s:(!t1 -. !t0)
  end
