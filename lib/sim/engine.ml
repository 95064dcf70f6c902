type category = User | Sys

(* Engine-wide label interning: cost labels (string literals at call
   sites) map to dense small ids, so per-delay accounting is one array
   add instead of a Hashtbl find+replace.  [last]/[last_id] memoize the
   previous label by physical equality — hot loops charge the same
   literal repeatedly, so the common case is a single pointer compare. *)
type interns = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n : int;
  mutable last : string;
  mutable last_id : int;
}

let interns_create () =
  { ids = Hashtbl.create 32; names = Array.make 16 ""; n = 0; last = ""; last_id = -1 }

(* Call sites pass string literals, and each call site's literal is one
   allocation — so a physical-equality scan over the (small, first-use
   ordered) names array resolves hot labels without hashing.  The
   Hashtbl handles equal-but-distinct strings and keeps the scan bounded. *)
let intern it l =
  if l == it.last then it.last_id
  else begin
    let id =
      let names = it.names in
      let lim = if it.n < 48 then it.n else 48 in
      let i = ref 0 in
      while !i < lim && not (names.(!i) == l) do
        incr i
      done;
      if !i < lim then !i
      else
        match Hashtbl.find_opt it.ids l with
        | Some id -> id
        | None ->
            let id = it.n in
            if id = Array.length it.names then begin
              let nn = Array.make (2 * id) "" in
              Array.blit it.names 0 nn 0 id;
              it.names <- nn
            end;
            it.names.(id) <- l;
            Hashtbl.add it.ids l id;
            it.n <- id + 1;
            id
    in
    it.last <- l;
    it.last_id <- id;
    id
  end

type ctx = {
  fid : int;
  name : string;
  mutable core : int;
  daemon : bool;
  mutable user : int;
  mutable sys : int;
  mutable idle : int;
  mutable ev : int; (* events executed by this fiber *)
  mutable waiting_on : int; (* shard id the fiber waits on, -1 = none *)
  mutable node : int; (* cluster node id the fiber serves, -1 = none *)
  mutable lab : int array; (* cycles per interned label id (internal) *)
  it : interns; (* owning engine's intern table (internal) *)
}

let set_waiting_on ctx sid = ctx.waiting_on <- sid
let waiting_on ctx = ctx.waiting_on
let set_node_id ctx nid = ctx.node <- nid
let node_id ctx = ctx.node

let ctx_bump ctx id c =
  let n = Array.length ctx.lab in
  if id >= n then begin
    let nn = Array.make (max 16 (max (2 * n) (id + 1))) 0 in
    Array.blit ctx.lab 0 nn 0 n;
    ctx.lab <- nn
  end;
  ctx.lab.(id) <- ctx.lab.(id) + c

let labels ctx =
  let it = ctx.it in
  let out = ref [] in
  let n = min it.n (Array.length ctx.lab) in
  for id = n - 1 downto 0 do
    if ctx.lab.(id) <> 0 then
      out := (it.names.(id), Int64.of_int ctx.lab.(id)) :: !out
  done;
  !out

let label_get ctx l =
  match Hashtbl.find_opt ctx.it.ids l with
  | Some id when id < Array.length ctx.lab -> Int64.of_int ctx.lab.(id)
  | _ -> 0L

type t = {
  mutable now : int; (* virtual cycles; fits in 62 bits *)
  mutable seq : int;
  q : (unit -> unit) Pqueue.t;
  mutable horizon : int;
      (* exclusive virtual-time bound for [run_until]; [max_int] outside
         a windowed run.  The delay fast path honours it so a fiber
         cannot coast past the conservative-sync window. *)
  slot : (unit -> unit) Pqueue.slot;
      (* reusable out-cell for the drain loop: one per engine, so popping
         an event is three stores instead of an option/tuple box *)
  mutable current : ctx option;
  mutable live : int;
  mutable next_fid : int;
  mutable nevents : int;
  fastpath : bool;
  mutable pending : (unit, unit) Effect.Deep.continuation option;
      (* fast-path trampoline: a delay whose wake-up provably precedes
         every queued event skips the queue; the run loop continues it
         directly, keeping the native stack flat *)
  mutable on_event : (int -> unit) option;
      (* called with the event ordinal after every event (queued or
         fast-pathed); may raise to abort the run at an event boundary *)
  engine_rng : Rng.t;
  blocked : (int, ctx) Hashtbl.t; (* fibers parked in Suspend, by fid *)
  it : interns;
  (* always-on metric cells, bound once at [create] for the owning
     domain — each bump is a single unboxed int store *)
  m_ev : Metrics.Registry.cell;
  m_ev_fast : Metrics.Registry.cell;
  m_spawns : Metrics.Registry.cell;
  m_suspends : Metrics.Registry.cell;
}

type _ Effect.t +=
  | Delay : category * string option * int -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Timed_wait : int -> unit Effect.t
  | Self : ctx Effect.t
  | Now : int64 Effect.t

(* Ambient engine of the executing domain, maintained by [run].  Pure
   reads from fiber code (self, now_f, label_add) resolve through it as
   plain loads; performing an effect for them would capture and resume a
   continuation per call, which dominates the cost of hot accounting
   loops like [Costbuf.charge].  The effects above stay as the fallback
   so the reads still work under a foreign handler (e.g. in tests that
   drive fibers manually). *)
let ambient_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* Domain-local event hook, picked up by engines created afterwards in
   the same domain (fault plans install their crash trigger here before
   the experiment builds its engine).  Kept in the engine record so the
   per-event disabled cost is one field load and branch, not a DLS
   lookup. *)
let event_hook_key : (int -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_domain_event_hook h = Domain.DLS.get event_hook_key := h

let create ?(seed = 42) ?(fastpath = true) () =
  {
    now = 0;
    seq = 0;
    q = Pqueue.create ();
    horizon = max_int;
    slot = Pqueue.slot ~dummy:ignore;
    current = None;
    live = 0;
    next_fid = 0;
    nevents = 0;
    fastpath;
    pending = None;
    on_event = !(Domain.DLS.get event_hook_key);
    engine_rng = Rng.create seed;
    blocked = Hashtbl.create 64;
    it = interns_create ();
    m_ev =
      Metrics.Registry.counter ~help:"simulation events executed"
        "engine_events";
    m_ev_fast =
      Metrics.Registry.counter ~help:"events that took the delay fast path"
        "engine_events_fast";
    m_spawns =
      Metrics.Registry.counter ~help:"fibers spawned" "engine_spawns";
    m_suspends =
      Metrics.Registry.counter ~help:"fibers parked in suspend"
        "engine_suspends";
  }

let now t = Int64.of_int t.now
let rng t = t.engine_rng
let events t = t.nevents
let live_fibers t = t.live
let set_event_hook t h = t.on_event <- h

(* Earliest queued time ([max_int] when drained) — the fast-path guard. *)
let next_time t = Pqueue.min_time t.q

let blocked_fibers t =
  Hashtbl.fold
    (fun _ ctx acc -> if ctx.daemon then acc else ctx :: acc)
    t.blocked []
  |> List.sort (fun a b -> Int.compare a.fid b.fid)
  |> List.map (fun ctx -> (ctx.core, ctx.name))

(* Deadlock diagnosis: everything known about each parked fiber, daemons
   included, with the per-label cycle breakdown — a fiber stuck in
   "io_retry" reads very differently from one stuck in "lock". *)
let blocked_report t =
  let parked =
    Hashtbl.fold (fun _ ctx acc -> ctx :: acc) t.blocked []
    |> List.sort (fun a b -> Int.compare a.fid b.fid)
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d fiber(s) blocked at t=%d:\n" (List.length parked) t.now);
  List.iter
    (fun ctx ->
      Buffer.add_string b
        (Printf.sprintf
           "  fiber %d %S core %d%s%s%s: events=%d user=%d sys=%d idle=%d \
            cycles\n"
           ctx.fid ctx.name ctx.core
           (* cluster-node tag: a cross-node RPC deadlock then names both
              halves (this node, plus the awaited shard) in one line *)
           (if ctx.node >= 0 then Printf.sprintf " node %d" ctx.node else "")
           (if ctx.waiting_on >= 0 then
              (* the cross-shard half of a deadlock: name the peer whose
                 reply never came, not just where this fiber lives *)
              Printf.sprintf " waiting-on shard %d" ctx.waiting_on
            else "")
           (if ctx.daemon then " [daemon]" else "")
           ctx.ev ctx.user ctx.sys ctx.idle);
      List.iter
        (fun (label, cycles) ->
          Buffer.add_string b (Printf.sprintf "    %-18s %Ld\n" label cycles))
        (labels ctx))
    parked;
  Buffer.contents b

(* Tracing: every hook is behind a [Trace.live_tracers] check so the
   disabled path is one plain load and branch per site. *)
let trace_span ~ts ~dur ~cat ctx name =
  match Trace.current () with
  | Some tr ->
      Trace.span tr ~ts:(Int64.of_int ts) ~dur:(Int64.of_int dur) ~core:ctx.core
        ~fiber:ctx.fid ~cat name
  | None -> ()

let trace_instant ~ts ~cat ctx name =
  match Trace.current () with
  | Some tr ->
      Trace.instant tr ~ts:(Int64.of_int ts) ~core:ctx.core ~fiber:ctx.fid ~cat
        name
  | None -> ()

(* Profiling: same discipline as tracing — every call site guards with
   [Atomic.get Metrics.Profile.live > 0], so runs without a profiler pay
   one load and branch per charge.  Unlabelled delays attribute their
   cycles to the category name. *)
let cat_label = function User -> "user" | Sys -> "sys"

let prof_charge ~now ~cycles ctx label =
  Metrics.Profile.charge ~now ~cycles ~fiber:ctx.name ~label

let schedule t ~at thunk =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  Pqueue.push t.q ~time:at ~seq:t.seq thunk

(* External event injection: runs [thunk] at virtual time [at], outside
   any fiber.  This is how a Shard cluster delivers cross-shard events
   (posted IPIs, remote completions); the thunk must not perform fiber
   effects itself — spawn a fiber for any work that needs to delay or
   block. *)
let post t ~at thunk =
  schedule t ~at:(Int64.to_int at) (fun () ->
      t.current <- None;
      thunk ())

(* Run [f] as a fiber under the engine's effect handler.  Suspension points
   capture the continuation and schedule it back through the event queue —
   except delays that would run next anyway, which park in [t.pending] for
   the run loop to continue without a queue round-trip. *)
let run_fiber t ctx f =
  let open Effect.Deep in
  match_with f ()
    {
      retc =
        (fun () ->
          if not ctx.daemon then t.live <- t.live - 1;
          if Atomic.get Trace.live_tracers > 0 then trace_instant ~ts:t.now ~cat:"engine" ctx "exit");
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay (cat, label, c) ->
              Some
                (fun (k : (a, _) continuation) ->
                  let c = if c < 0 then 0 else c in
                  (match cat with
                  | User -> ctx.user <- ctx.user + c
                  | Sys -> ctx.sys <- ctx.sys + c);
                  (match label with
                  | None -> ()
                  | Some l -> ctx_bump ctx (intern t.it l) c);
                  (if Atomic.get Trace.live_tracers > 0 then
                     match label with
                     | Some l -> trace_span ~ts:t.now ~dur:c ~cat:"engine" ctx l
                     | None -> ());
                  (if Atomic.get Metrics.Profile.live > 0 then
                     prof_charge ~now:t.now ~cycles:c ctx
                       (match label with Some l -> l | None -> cat_label cat));
                  let at = t.now + c in
                  t.seq <- t.seq + 1;
                  (* Fast path: nothing queued can run before (at, seq) —
                     the head is strictly later (ties lose: an equal-time
                     head has a smaller seq) — and the wake-up stays
                     inside the run window.  Advance the clock and hand
                     the continuation straight back to the run loop. *)
                  if t.fastpath && next_time t > at && at < t.horizon then begin
                    t.now <- at;
                    t.current <- Some ctx;
                    t.pending <- Some k
                  end
                  else
                    Pqueue.push t.q ~time:at ~seq:t.seq (fun () ->
                        ctx.ev <- ctx.ev + 1;
                        t.current <- Some ctx;
                        continue k ()))
          | Timed_wait c ->
              Some
                (fun (k : (a, _) continuation) ->
                  let c = if c < 0 then 0 else c in
                  ctx.idle <- ctx.idle + c;
                  if Atomic.get Trace.live_tracers > 0 then
                    trace_span ~ts:t.now ~dur:c ~cat:"engine" ctx "idle";
                  if Atomic.get Metrics.Profile.live > 0 then
                    prof_charge ~now:t.now ~cycles:c ctx "idle";
                  let at = t.now + c in
                  t.seq <- t.seq + 1;
                  if t.fastpath && next_time t > at && at < t.horizon then begin
                    t.now <- at;
                    t.current <- Some ctx;
                    t.pending <- Some k
                  end
                  else
                    Pqueue.push t.q ~time:at ~seq:t.seq (fun () ->
                        ctx.ev <- ctx.ev + 1;
                        t.current <- Some ctx;
                        continue k ()))
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let t0 = t.now in
                  let resumed = ref false in
                  Hashtbl.replace t.blocked ctx.fid ctx;
                  Metrics.Registry.incr t.m_suspends;
                  let resume () =
                    if !resumed then
                      invalid_arg
                        (Printf.sprintf "fiber %s: resumed twice" ctx.name);
                    resumed := true;
                    Hashtbl.remove t.blocked ctx.fid;
                    ctx.waiting_on <- -1;
                    schedule t ~at:t.now (fun () ->
                        ctx.ev <- ctx.ev + 1;
                        ctx.idle <- ctx.idle + (t.now - t0);
                        (if Atomic.get Trace.live_tracers > 0 && t.now > t0 then
                           trace_span ~ts:t0 ~dur:(t.now - t0) ~cat:"engine" ctx
                             "blocked");
                        (if Atomic.get Metrics.Profile.live > 0 && t.now > t0
                         then
                           prof_charge ~now:t0 ~cycles:(t.now - t0) ctx
                             "blocked");
                        t.current <- Some ctx;
                        continue k ())
                  in
                  register resume)
          | Self -> Some (fun (k : (a, _) continuation) -> continue k ctx)
          | Now ->
              Some (fun (k : (a, _) continuation) -> continue k (Int64.of_int t.now))
          | _ -> None);
    }

let spawn t ?(name = "fiber") ?(core = 0) ?(daemon = false) f =
  t.next_fid <- t.next_fid + 1;
  let ctx =
    {
      fid = t.next_fid;
      name;
      core;
      daemon;
      user = 0;
      sys = 0;
      idle = 0;
      ev = 0;
      waiting_on = -1;
      node = -1;
      lab = [||];
      it = t.it;
    }
  in
  Metrics.Registry.incr t.m_spawns;
  if not daemon then t.live <- t.live + 1;
  (if Atomic.get Trace.live_tracers > 0 then
     match Trace.current () with
     | Some tr ->
         Trace.declare_fiber tr ~fiber:ctx.fid ~core:ctx.core ~name:ctx.name;
         Trace.instant tr ~ts:(Int64.of_int t.now) ~core:ctx.core ~fiber:ctx.fid
           ~cat:"engine" "spawn"
     | None -> ());
  schedule t ~at:t.now (fun () ->
      ctx.ev <- ctx.ev + 1;
      t.current <- Some ctx;
      run_fiber t ctx f);
  ctx

let run_loop t ~horizon =
  let amb = Domain.DLS.get ambient_key in
  let saved = !amb in
  amb := Some t;
  t.horizon <- horizon;
  Fun.protect
    ~finally:(fun () ->
      t.horizon <- max_int;
      amb := saved)
    (fun () ->
      let continue_ = ref true in
      while !continue_ do
        match t.pending with
        | Some k ->
            (* clock and current fiber were set when the delay fast-pathed *)
            t.pending <- None;
            t.nevents <- t.nevents + 1;
            Metrics.Registry.incr t.m_ev;
            Metrics.Registry.incr t.m_ev_fast;
            (match t.current with
            | Some ctx -> ctx.ev <- ctx.ev + 1
            | None -> ());
            (match t.on_event with None -> () | Some f -> f t.nevents);
            Effect.Deep.continue k ()
        | None ->
            let sl = t.slot in
            if Pqueue.pop_into t.q sl ~before:horizon then begin
              t.now <- sl.Pqueue.s_time;
              let thunk = sl.Pqueue.s_val in
              sl.Pqueue.s_val <- ignore;
              t.nevents <- t.nevents + 1;
              Metrics.Registry.incr t.m_ev;
              (match t.on_event with None -> () | Some f -> f t.nevents);
              thunk ()
            end
            else continue_ := false
      done)

let run t = run_loop t ~horizon:max_int

(* Windowed run for conservative parallel sync (see [Shard]): executes
   only events strictly before [horizon], leaving later ones queued.
   The clock is left at the last executed event, never advanced to the
   horizon itself, so a later window (or a cross-shard post landing
   inside the lookahead gap) can still schedule work at >= now. *)
let run_until t ~horizon = run_loop t ~horizon

(* Fiber-side fast path: when the wake-up provably precedes every queued
   event, the continuation would be resumed immediately anyway, so the
   delay reduces to accounting plus a clock bump — no effect performed,
   no continuation captured.  Identical (time, seq) order and event
   count as the queued path; the effect below is the fallback whenever
   the condition fails (or the fast path is disabled). *)
let delay ?(cat = User) ?label c =
  let c = Int64.to_int c in
  let c = if c < 0 then 0 else c in
  match !(Domain.DLS.get ambient_key) with
  | Some ({ fastpath = true; current = Some ctx; _ } as t)
    when next_time t > t.now + c && t.now + c < t.horizon ->
      (match cat with
      | User -> ctx.user <- ctx.user + c
      | Sys -> ctx.sys <- ctx.sys + c);
      (match label with
      | None -> ()
      | Some l -> ctx_bump ctx (intern t.it l) c);
      (if Atomic.get Trace.live_tracers > 0 then
         match label with
         | Some l -> trace_span ~ts:t.now ~dur:c ~cat:"engine" ctx l
         | None -> ());
      (if Atomic.get Metrics.Profile.live > 0 then
         prof_charge ~now:t.now ~cycles:c ctx
           (match label with Some l -> l | None -> cat_label cat));
      t.seq <- t.seq + 1;
      t.nevents <- t.nevents + 1;
      ctx.ev <- ctx.ev + 1;
      Metrics.Registry.incr t.m_ev;
      Metrics.Registry.incr t.m_ev_fast;
      t.now <- t.now + c;
      (match t.on_event with None -> () | Some f -> f t.nevents)
  | _ -> Effect.perform (Delay (cat, label, c))

let idle_wait c =
  let c = Int64.to_int c in
  let c = if c < 0 then 0 else c in
  match !(Domain.DLS.get ambient_key) with
  | Some ({ fastpath = true; current = Some ctx; _ } as t)
    when next_time t > t.now + c && t.now + c < t.horizon ->
      ctx.idle <- ctx.idle + c;
      if Atomic.get Trace.live_tracers > 0 then trace_span ~ts:t.now ~dur:c ~cat:"engine" ctx "idle";
      if Atomic.get Metrics.Profile.live > 0 then
        prof_charge ~now:t.now ~cycles:c ctx "idle";
      t.seq <- t.seq + 1;
      t.nevents <- t.nevents + 1;
      ctx.ev <- ctx.ev + 1;
      Metrics.Registry.incr t.m_ev;
      Metrics.Registry.incr t.m_ev_fast;
      t.now <- t.now + c;
      (match t.on_event with None -> () | Some f -> f t.nevents)
  | _ -> Effect.perform (Timed_wait c)

let suspend register = Effect.perform (Suspend register)

let now_f () =
  match !(Domain.DLS.get ambient_key) with
  | Some t -> Int64.of_int t.now
  | None -> Effect.perform Now

let self () =
  match !(Domain.DLS.get ambient_key) with
  | Some { current = Some ctx; _ } -> ctx
  | _ -> Effect.perform Self

let label_add label c =
  let ctx = self () in
  ctx_bump ctx (intern ctx.it label) (Int64.to_int c)

let ctx_label_add ctx label c = ctx_bump ctx (intern ctx.it label) c
