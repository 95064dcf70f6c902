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
         a windowed run.  The sleep fast path honours it so a fiber
         cannot coast past the conservative-sync window. *)
  slot : (unit -> unit) Pqueue.slot;
      (* reusable out-cell for the drain loop: one per engine, so popping
         an event is three stores instead of an option/tuple box *)
  mutable current : ctx option;
  mutable live : int;
  mutable next_fid : int;
  mutable nevents : int;
  fastpath : bool;
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

(* The only two ways a fiber leaves the CPU: [Suspend] parks it until a
   callback resumes it, [Wake_at] requeues it at a virtual time.  Every
   other fiber-side operation reads or writes the ambient engine. *)
type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Wake_at : int -> unit Effect.t

(* Ambient engine of the executing domain, maintained by [run]: fiber
   code reaches its engine and context with plain loads, so hot
   accounting loops like [Costbuf.charge] capture no continuation. *)
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
    q = Pqueue.create ~dummy:ignore;
    horizon = max_int;
    slot = Pqueue.slot ~dummy:ignore;
    current = None;
    live = 0;
    next_fid = 0;
    nevents = 0;
    fastpath;
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

(* What a booked span of a fiber's time was: CPU work of one category,
   a timed idle wait, or the interval between parking in [suspend] and
   resuming. *)
type span = User_cpu | Sys_cpu | Idle | Blocked

let cpu = function User -> User_cpu | Sys -> Sys_cpu

(* The one place a span of [c] cycles starting at [ts] becomes
   accounting: the fiber's user, sys or idle total and, when labelled,
   its label; then the tracer (a span per labelled CPU charge, idle wait
   and blocked interval) and the profiler (a sample per span, unlabelled
   CPU work under its category's name).  Both observers together cost one
   load and branch while off. *)
let book t ctx span label ~ts c =
  (match span with
  | User_cpu -> ctx.user <- ctx.user + c
  | Sys_cpu -> ctx.sys <- ctx.sys + c
  | Idle | Blocked -> ctx.idle <- ctx.idle + c);
  (match label with Some l -> ctx_bump ctx (intern t.it l) c | None -> ());
  let name =
    match (span, label) with
    | (User_cpu | Sys_cpu), Some l -> l
    | User_cpu, None -> "user"
    | Sys_cpu, None -> "sys"
    | Idle, _ -> "idle"
    | Blocked, _ -> "blocked"
  in
  if Atomic.get Trace.live > 0 then begin
    let o = Trace.observers () in
    (match (o.tracer, span, label) with
    | None, _, _ | Some _, (User_cpu | Sys_cpu), None -> ()
    | Some tr, _, _ ->
        Trace.span tr ~ts:(Int64.of_int ts) ~dur:(Int64.of_int c)
          ~core:ctx.core ~fiber:ctx.fid ~cat:"engine" name);
    match o.profiler with
    | Some p ->
        Metrics.Profile.charge p ~now:ts ~cycles:c ~fiber:ctx.name ~label:name
    | None -> ()
  end

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

(* Run [f] as a fiber under the engine's effect handler: both effects
   hand the continuation to the event queue, which the run loop drains. *)
let run_fiber t ctx f =
  let open Effect.Deep in
  match_with f ()
    {
      retc =
        (fun () ->
          if not ctx.daemon then t.live <- t.live - 1;
          if Atomic.get Trace.live > 0 then
            match Trace.current () with
            | Some tr ->
                Trace.instant tr ~ts:(Int64.of_int t.now) ~core:ctx.core
                  ~fiber:ctx.fid ~cat:"engine" "exit"
            | None -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wake_at at ->
              Some
                (fun (k : (a, _) continuation) ->
                  schedule t ~at (fun () ->
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
                        if t.now > t0 then
                          book t ctx Blocked None ~ts:t0 (t.now - t0);
                        t.current <- Some ctx;
                        continue k ())
                  in
                  register resume)
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
  (if Atomic.get Trace.live > 0 then
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
      let sl = t.slot in
      while Pqueue.pop_into t.q sl ~before:horizon do
        t.now <- sl.Pqueue.s_time;
        let thunk = sl.Pqueue.s_val in
        sl.Pqueue.s_val <- ignore;
        t.nevents <- t.nevents + 1;
        Metrics.Registry.incr t.m_ev;
        (match t.on_event with None -> () | Some f -> f t.nevents);
        thunk ()
      done)

let run t = run_loop t ~horizon:max_int

(* Windowed run for conservative parallel sync (see [Shard]): executes
   only events strictly before [horizon], leaving later ones queued.
   The clock is left at the last executed event, never advanced to the
   horizon itself, so a later window (or a cross-shard post landing
   inside the lookahead gap) can still schedule work at >= now. *)
let run_until t ~horizon = run_loop t ~horizon

(* Advance the running fiber [c] cycles.  When the wake-up provably
   precedes every queued event (an equal-time head has a smaller seq, so
   ties lose) and stays inside the run window, the continuation would be
   resumed next anyway: count the event and bump the clock in place, no
   continuation captured.  Otherwise requeue through [Wake_at].  Same
   (time, seq) order and event count either way. *)
let sleep t ctx c =
  let at = t.now + c in
  if t.fastpath && next_time t > at && at < t.horizon then begin
    t.seq <- t.seq + 1;
    t.nevents <- t.nevents + 1;
    ctx.ev <- ctx.ev + 1;
    Metrics.Registry.incr t.m_ev;
    Metrics.Registry.incr t.m_ev_fast;
    t.now <- at;
    match t.on_event with None -> () | Some f -> f t.nevents
  end
  else Effect.perform (Wake_at at)

let cycles c =
  let c = Int64.to_int c in
  if c < 0 then 0 else c

let delay ?(cat = User) ?label c =
  match !(Domain.DLS.get ambient_key) with
  | Some ({ current = Some ctx; _ } as t) ->
      let c = cycles c in
      book t ctx (cpu cat) label ~ts:t.now c;
      sleep t ctx c
  | _ -> invalid_arg "Engine.delay: called outside a running fiber"

let idle_wait ?label c =
  match !(Domain.DLS.get ambient_key) with
  | Some ({ current = Some ctx; _ } as t) ->
      let c = cycles c in
      book t ctx Idle label ~ts:t.now c;
      sleep t ctx c
  | _ -> invalid_arg "Engine.idle_wait: called outside a running fiber"

(* The parts go to their labels here, and their sum through [book] with
   no label, so a batch's labels never exceed the cycles it books. *)
let delay_parts ~cat labels parts n =
  match !(Domain.DLS.get ambient_key) with
  | Some ({ current = Some ctx; _ } as t) ->
      let c = ref 0 in
      for i = 0 to n - 1 do
        let p = parts.(i) in
        if p > 0 then begin
          ctx_bump ctx (intern t.it labels.(i)) p;
          c := !c + p
        end
      done;
      book t ctx (cpu cat) None ~ts:t.now !c;
      sleep t ctx !c
  | _ -> invalid_arg "Engine.delay_parts: called outside a running fiber"

let suspend register = Effect.perform (Suspend register)

let now_f () =
  match !(Domain.DLS.get ambient_key) with
  | Some t -> Int64.of_int t.now
  | None -> invalid_arg "Engine.now_f: no engine is running"

let self () =
  match !(Domain.DLS.get ambient_key) with
  | Some { current = Some ctx; _ } -> ctx
  | _ -> invalid_arg "Engine.self: called outside a running fiber"

(* A store or cache that starts its own daemons on first use has no
   engine in hand: it reaches the one running the calling fiber. *)
let spawn_daemon_here ~name f =
  match !(Domain.DLS.get ambient_key) with
  | Some ({ current = Some ctx; _ } as t) -> spawn t ~name ~core:ctx.core ~daemon:true f
  | _ -> invalid_arg "Engine.spawn_daemon_here: called outside a running fiber"
