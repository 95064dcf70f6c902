(* Tests for the discrete-event simulation engine (lib/sim). *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let check64 msg a b = Alcotest.(check int64) msg a b

(* ---- Pqueue ---- *)

(* The head as [(time, seq, value)] if its time is before [before]. *)
let pq_pop ?(before = max_int) q sl =
  if Sim.Pqueue.pop_into q sl ~before then
    Some (sl.Sim.Pqueue.s_time, sl.Sim.Pqueue.s_seq, sl.Sim.Pqueue.s_val)
  else None

let pqueue_order () =
  let q = Sim.Pqueue.create ~dummy:"-" in
  let sl = Sim.Pqueue.slot ~dummy:"-" in
  Sim.Pqueue.push q ~time:30 ~seq:1 "c";
  Sim.Pqueue.push q ~time:10 ~seq:2 "a";
  Sim.Pqueue.push q ~time:20 ~seq:3 "b";
  let pop () = match pq_pop q sl with Some (_, _, v) -> v | None -> "?" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Sim.Pqueue.min_time q = max_int)

let pqueue_fifo_ties () =
  let q = Sim.Pqueue.create ~dummy:(-1) in
  let sl = Sim.Pqueue.slot ~dummy:(-1) in
  for i = 0 to 9 do
    Sim.Pqueue.push q ~time:5 ~seq:i i
  done;
  for i = 0 to 9 do
    match pq_pop q sl with
    | Some (_, _, v) -> checki (Printf.sprintf "tie %d" i) i v
    | None -> Alcotest.fail "queue drained early"
  done

let pqueue_prop =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing (time, seq) order"
    ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      let q = Sim.Pqueue.create ~dummy:(-1) in
      let sl = Sim.Pqueue.slot ~dummy:(-1) in
      List.iteri (fun seq (t, v) -> Sim.Pqueue.push q ~time:t ~seq v) pairs;
      let rec drain last acc =
        match pq_pop q sl with
        | None -> List.rev acc
        | Some (t, s, _) ->
            if compare last (t, s) > 0 then raise Exit;
            drain (t, s) ((t, s) :: acc)
      in
      match drain (-1, -1) [] with
      | l -> List.length l = List.length pairs
      | exception Exit -> false)

let pqueue_vs_reference =
  (* Interleaved pushes and bounded pops against a sorted-list reference
     model: the heap must return exactly the reference's (time, seq,
     value) sequence, including FIFO order on time ties, and refuse a pop
     exactly when the reference's head is not before the bound.  Three
     pushes per pop over 100-400 steps take most scripts past the
     64-entry first allocation, and every push after a pop reuses a freed
     payload slot. *)
  QCheck.Test.make ~name:"pqueue matches sorted reference model" ~count:100
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(list_size (int_range 100 400) (pair (int_bound 30) (int_bound 3))))
    (fun script ->
      let q = Sim.Pqueue.create ~dummy:(-1) in
      let sl = Sim.Pqueue.slot ~dummy:(-1) in
      let model = ref [] in
      (* sorted by (time, seq) *)
      let seq = ref 0 in
      let insert (t, s, v) =
        let rec go = function
          | [] -> [ (t, s, v) ]
          | ((t', s', _) as hd) :: tl ->
              if (t, s) < (t', s') then (t, s, v) :: hd :: tl else hd :: go tl
        in
        model := go !model
      in
      let pop_matches ~before =
        match (pq_pop ~before q sl, !model) with
        | None, [] -> true
        | None, (t, _, _) :: _ -> t >= before
        | Some got, ((t, _, _) as expect) :: tl ->
            model := tl;
            got = expect && t < before
        | Some _, [] -> false
      in
      List.for_all
        (fun (t, op) ->
          if op = 3 then pop_matches ~before:t
          else begin
            incr seq;
            Sim.Pqueue.push q ~time:t ~seq:!seq !seq;
            insert (t, !seq, !seq);
            true
          end)
        script
      &&
      let rec drain () =
        match (pq_pop q sl, !model) with
        | None, [] -> true
        | Some got, expect :: tl ->
            model := tl;
            got = expect && drain ()
        | _ -> false
      in
      drain ())

let pqueue_min_time_bound () =
  let q = Sim.Pqueue.create ~dummy:"-" in
  let sl = Sim.Pqueue.slot ~dummy:"-" in
  checki "empty min_time is max_int" max_int (Sim.Pqueue.min_time q);
  Sim.Pqueue.push q ~time:50 ~seq:0 "a";
  Sim.Pqueue.push q ~time:20 ~seq:1 "b";
  checki "min_time is head" 20 (Sim.Pqueue.min_time q);
  Alcotest.(check bool) "head not strictly before 20" false
    (Sim.Pqueue.pop_into q sl ~before:20);
  checki "refused pop leaves the head" 20 (Sim.Pqueue.min_time q);
  Alcotest.(check bool) "head before 21" true
    (Sim.Pqueue.pop_into q sl ~before:21);
  checki "popped head time" 20 sl.Sim.Pqueue.s_time;
  checki "next head" 50 (Sim.Pqueue.min_time q);
  Alcotest.(check bool) "refused pop left both entries" true
    (Sim.Pqueue.pop_into q sl ~before:max_int);
  checki "drained min_time is max_int" max_int (Sim.Pqueue.min_time q)

let pqueue_pop_into_slot () =
  let q = Sim.Pqueue.create ~dummy:"-" in
  let sl = Sim.Pqueue.slot ~dummy:"-" in
  Alcotest.(check bool) "pop_into on empty" false
    (Sim.Pqueue.pop_into q sl ~before:max_int);
  check Alcotest.string "empty pop keeps dummy" "-" sl.Sim.Pqueue.s_val;
  Sim.Pqueue.push q ~time:40 ~seq:0 "b";
  Sim.Pqueue.push q ~time:10 ~seq:1 "a";
  Alcotest.(check bool) "head before 11" true
    (Sim.Pqueue.pop_into q sl ~before:11);
  checki "slot time" 10 sl.Sim.Pqueue.s_time;
  checki "slot seq" 1 sl.Sim.Pqueue.s_seq;
  check Alcotest.string "slot value" "a" sl.Sim.Pqueue.s_val;
  Alcotest.(check bool) "slot reused" true
    (Sim.Pqueue.pop_into q sl ~before:max_int);
  checki "reused slot time" 40 sl.Sim.Pqueue.s_time;
  checki "reused slot seq" 0 sl.Sim.Pqueue.s_seq;
  check Alcotest.string "reused slot value" "b" sl.Sim.Pqueue.s_val;
  Alcotest.(check bool) "drained" true (Sim.Pqueue.min_time q = max_int)

(* A popped payload is not kept alive by the queue: its freed slot is
   reset to the dummy, even while other entries stay queued. *)
let pqueue_releases_popped () =
  let q = Sim.Pqueue.create ~dummy:[||] in
  let sl = Sim.Pqueue.slot ~dummy:[||] in
  let w = Weak.create 1 in
  let[@inline never] push_tracked () =
    let v = Array.make 8 0 in
    Weak.set w 0 (Some v);
    Sim.Pqueue.push q ~time:1 ~seq:0 v
  in
  push_tracked ();
  Sim.Pqueue.push q ~time:2 ~seq:1 [| 1 |];
  Alcotest.(check bool) "popped" true (Sim.Pqueue.pop_into q sl ~before:2);
  sl.Sim.Pqueue.s_val <- [||];
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check w 0);
  checki "other entry still queued" 2 (Sim.Pqueue.min_time q)

(* ---- Rng ---- *)

let rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    check64 "same stream" (Sim.Rng.next64 a) (Sim.Rng.next64 b)
  done

let rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let c = Sim.Rng.split a in
  Alcotest.(check bool) "split differs" true (Sim.Rng.next64 a <> Sim.Rng.next64 c)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_range 1 1000000) small_int)
    (fun (bound, seed) ->
      let r = Sim.Rng.create seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

(* ---- Engine ---- *)

let engine_delay_advances_clock () =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.delay 100L));
  Sim.Engine.run eng;
  check64 "clock" 100L (Sim.Engine.now eng)

let engine_accounting () =
  let eng = Sim.Engine.create () in
  let ctx =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.delay ~cat:Sim.Engine.User 50L;
        Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"fault" 70L;
        Sim.Engine.idle_wait 30L)
  in
  Sim.Engine.run eng;
  checki "user" 50 ctx.Sim.Engine.user;
  checki "sys" 70 ctx.Sim.Engine.sys;
  checki "idle" 30 ctx.Sim.Engine.idle;
  check64 "label" 70L (Sim.Engine.label_get ctx "fault");
  check64 "absent label" 0L (Sim.Engine.label_get ctx "nope");
  Alcotest.(check (list (pair string int64)))
    "labels list" [ ("fault", 70L) ] (Sim.Engine.labels ctx);
  check64 "total time" 150L (Sim.Engine.now eng)

let engine_parallel_fibers_overlap () =
  (* Two fibers each delaying 100 cycles run concurrently in virtual time. *)
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 (fun () -> Sim.Engine.delay 100L));
  ignore (Sim.Engine.spawn eng ~core:1 (fun () -> Sim.Engine.delay 100L));
  Sim.Engine.run eng;
  check64 "overlapped" 100L (Sim.Engine.now eng)

let engine_suspend_resume () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  let woken = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"waiter" (fun () ->
         Sim.Engine.suspend (fun resume -> resume_cell := Some resume);
         woken := true));
  ignore
    (Sim.Engine.spawn eng ~name:"waker" (fun () ->
         Sim.Engine.delay 500L;
         match !resume_cell with Some r -> r () | None -> Alcotest.fail "not registered"));
  Sim.Engine.run eng;
  Alcotest.(check bool) "woken" true !woken;
  checki "no stuck fibers" 0 (Sim.Engine.live_fibers eng)

let engine_idle_accounted_on_suspend () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  let ctx =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.suspend (fun resume -> resume_cell := Some resume))
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 400L;
         Option.get !resume_cell ()));
  Sim.Engine.run eng;
  checki "idle = blocked time" 400 ctx.Sim.Engine.idle

let engine_double_resume_rejected () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.suspend (fun resume -> resume_cell := Some resume)));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         let r = Option.get !resume_cell in
         r ();
         Alcotest.check_raises "second resume raises"
           (Invalid_argument "fiber fiber: resumed twice") (fun () -> r ())));
  Sim.Engine.run eng

let engine_deterministic () =
  let trace seed =
    let eng = Sim.Engine.create ~seed () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      ignore
        (Sim.Engine.spawn eng ~core:i (fun () ->
             Sim.Engine.delay (Int64.of_int (Sim.Rng.int (Sim.Engine.rng eng) 100));
             Buffer.add_string log (Printf.sprintf "%d@%Ld;" i (Sim.Engine.now_f ()))))
    done;
    Sim.Engine.run eng;
    Buffer.contents log
  in
  check Alcotest.string "same trace" (trace 3) (trace 3)

let engine_blocked_fibers_reports_deadlock () =
  (* Two fibers park forever on suspend; the engine drains its runnable
     queue and [blocked_fibers] names who is stuck, for deadlock triage. *)
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"stuck-a" ~core:0 (fun () ->
         Sim.Engine.suspend (fun _resume -> ())));
  ignore
    (Sim.Engine.spawn eng ~name:"stuck-b" ~core:2 (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.suspend (fun _resume -> ())));
  ignore (Sim.Engine.spawn eng ~name:"fine" (fun () -> Sim.Engine.delay 5L));
  Sim.Engine.run eng;
  checki "two stuck" 2 (Sim.Engine.live_fibers eng);
  Alcotest.(check (list (pair int string)))
    "who and where"
    [ (0, "stuck-a"); (2, "stuck-b") ]
    (Sim.Engine.blocked_fibers eng)

let engine_blocked_report_breaks_down_costs () =
  (* The deadlock report names each parked fiber and itemizes where its
     cycles went, so a fiber stuck after fault-injection retries
     ("io_retry" cycles) reads differently from one waiting on a lock. *)
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"retrier" ~core:1 (fun () ->
         Sim.Engine.delay ~label:"io_retry" 40_000L;
         Sim.Engine.suspend (fun _resume -> ())));
  ignore (Sim.Engine.spawn eng ~name:"fine" (fun () -> Sim.Engine.delay 5L));
  Sim.Engine.run eng;
  let report = Sim.Engine.blocked_report eng in
  let contains sub =
    let n = String.length sub and m = String.length report in
    let rec go i = i + n <= m && (String.sub report i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counts the stuck fibers" true
    (contains "1 fiber(s) blocked");
  Alcotest.(check bool) "names the fiber" true (contains "\"retrier\"");
  Alcotest.(check bool) "itemizes its labels" true (contains "io_retry");
  Alcotest.(check bool) "finished fiber absent" true (not (contains "fine"))

let engine_fastpath_matches_queued () =
  (* The delay fast path must be invisible: same seed with the fast path
     on and off gives identical event counts, final times, per-fiber
     accounting and interleaving. *)
  let run fastpath =
    let eng = Sim.Engine.create ~seed:11 ~fastpath () in
    let log = Buffer.create 256 in
    let ctxs =
      List.init 3 (fun i ->
          Sim.Engine.spawn eng ~core:i (fun () ->
              let rng = Sim.Engine.rng eng in
              for _ = 1 to 50 do
                Sim.Engine.delay ~label:"work"
                  (Int64.of_int (1 + Sim.Rng.int rng 40));
                if Sim.Rng.int rng 4 = 0 then Sim.Engine.idle_wait 25L;
                Buffer.add_string log
                  (Printf.sprintf "%d@%Ld;" i (Sim.Engine.now_f ()))
              done))
    in
    Sim.Engine.run eng;
    let acct =
      List.map
        (fun c ->
          (c.Sim.Engine.user, c.Sim.Engine.idle, Sim.Engine.label_get c "work"))
        ctxs
    in
    (Sim.Engine.events eng, Sim.Engine.now eng, Buffer.contents log, acct)
  in
  let e1, t1, l1, a1 = run true and e2, t2, l2, a2 = run false in
  checki "same event count" e2 e1;
  check64 "same final time" t2 t1;
  check Alcotest.string "same interleaving" l2 l1;
  Alcotest.(check bool) "same accounting" true (a1 = a2)

let engine_post_and_run_until () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.post eng ~at:200L (fun () -> log := 200 :: !log);
  Sim.Engine.post eng ~at:50L (fun () -> log := 50 :: !log);
  Sim.Engine.post eng ~at:500L (fun () -> log := 500 :: !log);
  checki "next_time sees earliest post" 50 (Sim.Engine.next_time eng);
  Sim.Engine.run_until eng ~horizon:201;
  (* horizon is exclusive: 50 and 200 ran, 500 is still pending *)
  Alcotest.(check (list int)) "events strictly before horizon" [ 50; 200 ]
    (List.rev !log);
  check64 "clock at last executed" 200L (Sim.Engine.now eng);
  checki "remainder pending" 500 (Sim.Engine.next_time eng);
  Sim.Engine.run_until eng ~horizon:500;
  Alcotest.(check (list int)) "boundary event excluded" [ 50; 200 ]
    (List.rev !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "run drains the rest" [ 50; 200; 500 ]
    (List.rev !log);
  checki "next_time on empty" max_int (Sim.Engine.next_time eng)

(* A deliberately messy engine workload: per-core rng delays, idle
   waits, a suspend/resume pair and external posts. *)
let messy_workload eng =
  let ncores = 6 in
  let log = Buffer.create 512 in
  let resume_cell = ref None in
  for core = 0 to ncores - 1 do
    ignore
      (Sim.Engine.spawn eng ~core ~name:(Printf.sprintf "w%d" core) (fun () ->
           let rng = Sim.Rng.create (100 + core) in
           for op = 1 to 20 do
             Sim.Engine.delay ~label:"work"
               (Int64.of_int (1 + Sim.Rng.int rng 30));
             if Sim.Rng.int rng 5 = 0 then Sim.Engine.idle_wait 17L;
             if core = 0 && op = 5 then
               Sim.Engine.suspend (fun resume -> resume_cell := Some resume);
             if core = 1 && op = 10 then (
               match !resume_cell with Some r -> r () | None -> ());
             Buffer.add_string log
               (Printf.sprintf "%d.%d@%Ld;" core op (Sim.Engine.now_f ()))
           done))
  done;
  for i = 0 to 9 do
    Sim.Engine.post eng
      ~at:(Int64.of_int (37 * (i + 1)))
      (fun () -> Buffer.add_string log (Printf.sprintf "p%d;" i))
  done;
  Sim.Engine.run eng;
  (Sim.Engine.events eng, Sim.Engine.now eng, Buffer.contents log)

let engine_schedule_pinned () =
  (* The fast-path test compares two modes of one build, so a change
     that moved both would pass it.  These values were recorded before
     the engine went to a single queue; no change to the run loop may
     move them. *)
  List.iter
    (fun fastpath ->
      let what = if fastpath then "fast path" else "queued" in
      let events, now, log =
        messy_workload (Sim.Engine.create ~seed:9 ~fastpath ())
      in
      checki (what ^ " events") 162 events;
      check64 (what ^ " final clock") 486L now;
      check Alcotest.string (what ^ " interleaving")
        "e9c23f290927d2834ac4f23da741058a"
        (Digest.to_hex (Digest.string log)))
    [ true; false ]

let engine_blocked_report_line () =
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"parked" ~core:6 (fun () ->
         Sim.Engine.suspend (fun _resume -> ())));
  Sim.Engine.run eng;
  let report = Sim.Engine.blocked_report eng in
  let contains sub =
    let n = String.length sub and m = String.length report in
    let rec go i = i + n <= m && (String.sub report i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fiber line" true
    (contains "  fiber 1 \"parked\" core 6: events=1 ")

(* ---- Booking: every charge reaches the books and the observers once ---- *)

type op =
  | Cpu of Sim.Engine.category * string option * int
  | Wait of string option * int
  | Batch of (string * int) list
  | Park (* suspend until a later [Wake] of any fiber *)
  | Wake

let op_gen =
  let open QCheck.Gen in
  let label = opt ~ratio:0.7 (oneofl [ "a"; "b"; "c" ]) in
  let cycles = int_bound 60 in
  frequency
    [
      ( 4,
        map3
          (fun cat l c -> Cpu (cat, l, c))
          (oneofl [ Sim.Engine.User; Sim.Engine.Sys ])
          label cycles );
      (2, map2 (fun l c -> Wait (l, c)) label cycles);
      ( 2,
        map (fun ps -> Batch ps)
          (list_size (int_range 1 4) (pair (oneofl [ "a"; "b"; "d" ]) cycles))
      );
      (1, return Park);
      (1, return Wake);
    ]

let show_op = function
  | Cpu (cat, l, c) ->
      Printf.sprintf "%s(%s,%d)"
        (if cat = Sim.Engine.User then "user" else "sys")
        (Option.value l ~default:"-") c
  | Wait (l, c) -> Printf.sprintf "wait(%s,%d)" (Option.value l ~default:"-") c
  | Batch ps ->
      "batch["
      ^ String.concat ";" (List.map (fun (l, c) -> Printf.sprintf "%s:%d" l c) ps)
      ^ "]"
  | Park -> "park"
  | Wake -> "wake"

let programs =
  QCheck.make
    ~print:(fun p ->
      String.concat " | " (List.map (fun ops -> String.concat " " (List.map show_op ops)) p))
    QCheck.Gen.(list_size (int_range 1 4) (list_size (int_bound 12) op_gen))

(* Each fiber runs its ops; [Park] hands the fiber's resume to a shared
   queue that the next [Wake] anywhere pops. *)
let run_program ~fastpath prog =
  let eng = Sim.Engine.create ~fastpath () in
  let parked = Queue.create () in
  let step = function
    | Cpu (cat, label, c) -> Sim.Engine.delay ~cat ?label (Int64.of_int c)
    | Wait (label, c) -> Sim.Engine.idle_wait ?label (Int64.of_int c)
    | Batch parts ->
        let b = Sim.Costbuf.create () in
        List.iter (fun (l, c) -> Sim.Costbuf.add b l (Int64.of_int c)) parts;
        Sim.Costbuf.charge ~cat:Sim.Engine.User b
    | Park -> Sim.Engine.suspend (fun resume -> Queue.add resume parked)
    | Wake -> Option.iter (fun r -> r ()) (Queue.take_opt parked)
  in
  let ctxs =
    List.mapi
      (fun core ops ->
        Sim.Engine.spawn eng ~core (fun () -> List.iter step ops))
      prog
  in
  Sim.Engine.run eng;
  ( Sim.Engine.events eng,
    Sim.Engine.now eng,
    List.map
      (fun (c : Sim.Engine.ctx) ->
        (c.user, c.sys, c.idle, Sim.Engine.labels c))
      ctxs )

let booking_contract =
  QCheck.Test.make ~name:"labels never exceed spent cycles, fast path or not"
    ~count:300 programs (fun prog ->
      let ((_, _, books) as fast) = run_program ~fastpath:true prog in
      let queued = run_program ~fastpath:false prog in
      let labelled = function
        | Cpu (_, None, _) | Wait (None, _) | Park -> false
        | Cpu _ | Wait _ | Batch _ | Wake -> true
      in
      fast = queued
      && List.for_all2
           (fun ops (user, sys, idle, labels) ->
             let lab =
               List.fold_left (fun acc (_, c) -> acc + Int64.to_int c) 0 labels
             in
             let spent = user + sys + idle in
             lab <= spent && ((not (List.for_all labelled ops)) || lab = spent))
           prog books)

(* Run [f] with a tracer and a 1-cycle profiler (one sample per cycle)
   on; return the spans it traced, the folded profile and the
   timeseries. *)
let observed ?(ts_period = 0) f =
  ignore (Trace.start ());
  Metrics.Profile.start ~period:1 ~ts_period ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Trace.stop ());
      Metrics.Profile.stop ())
    (fun () ->
      f ();
      let spans =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.ev_kind = Trace.Span then Some (e.ev_name, e.ev_dur) else None)
          (Trace.events (Option.get (Trace.current ())))
      in
      (spans, Metrics.Profile.folded (), Metrics.Profile.timeseries_csv ()))

let booking_same_time_resume () =
  (* Both fibers start at cycle 500 (a post spawns them), so a zero-
     cycle charge would reach the 100-cycle timeseries grid. *)
  let eng = Sim.Engine.create () in
  let parker = ref None in
  let spans, folded, ts =
    observed ~ts_period:100 (fun () ->
        Sim.Engine.post eng ~at:500L (fun () ->
            let resume = ref ignore in
            parker :=
              Some
                (Sim.Engine.spawn eng ~name:"parker" (fun () ->
                     Sim.Engine.suspend (fun r -> resume := r)));
            ignore (Sim.Engine.spawn eng (fun () -> !resume ())));
        Sim.Engine.run eng)
  in
  let ctx = Option.get !parker in
  checki "no idle booked" 0 ctx.Sim.Engine.idle;
  checki "woken" 0 (Sim.Engine.live_fibers eng);
  Alcotest.(check (list (pair string int64))) "no trace span" [] spans;
  check Alcotest.string "no profile sample" "" folded;
  check Alcotest.string "no timeseries row" "cycles,key,value\n" ts

let booking_observers () =
  let eng = Sim.Engine.create () in
  let ctx = ref None in
  let spans, folded, _ =
    observed (fun () ->
        let resume = ref ignore in
        ignore
          (Sim.Engine.spawn eng ~name:"p" (fun () ->
               Sim.Engine.suspend (fun r -> resume := r)));
        ctx :=
          Some
            (Sim.Engine.spawn eng ~name:"f" (fun () ->
                 Sim.Engine.delay ~cat:Sim.Engine.User 100L;
                 Sim.Engine.delay ~cat:Sim.Engine.Sys 50L;
                 Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"fault" 20L;
                 Sim.Engine.idle_wait ~label:"io_device" 30L;
                 !resume ()));
        Sim.Engine.run eng)
  in
  let ctx = Option.get !ctx in
  checki "user" 100 ctx.user;
  checki "sys" 70 ctx.sys;
  checki "idle" 30 ctx.idle;
  check64 "labelled wait booked to its label" 30L
    (Sim.Engine.label_get ctx "io_device");
  Alcotest.(check (list (pair string int64)))
    "traced: blocked interval, labelled charge and idle wait only"
    [ ("blocked", 200L); ("fault", 20L); ("idle", 30L) ]
    spans;
  check Alcotest.string "profiled: every charge, unlabelled under its category"
    "f;fault 20\nf;idle 30\nf;sys 50\nf;user 100\np;blocked 200\n" folded

let booking_outside_fiber () =
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let outside = "called outside a running fiber" in
  raises "delay" ("Engine.delay: " ^ outside) (fun () -> Sim.Engine.delay 1L);
  raises "idle_wait" ("Engine.idle_wait: " ^ outside) (fun () ->
      Sim.Engine.idle_wait 1L);
  raises "self" ("Engine.self: " ^ outside) Sim.Engine.self;
  raises "now_f" "Engine.now_f: no engine is running" Sim.Engine.now_f;
  let b = Sim.Costbuf.create () in
  Sim.Costbuf.charge b;
  Sim.Costbuf.add b "x" 5L;
  raises "non-empty charge" ("Engine.delay_parts: " ^ outside) (fun () ->
      Sim.Costbuf.charge b);
  (* inside a running engine but outside any fiber: a post thunk *)
  let eng = Sim.Engine.create () in
  let seen = ref (-1L) in
  let spans, _, _ =
    observed (fun () ->
        Sim.Engine.post eng ~at:7L (fun () ->
            seen := Sim.Engine.now_f ();
            raises "self in a post" ("Engine.self: " ^ outside) Sim.Engine.self;
            Sim.Probe.instant "dropped";
            Sim.Probe.counter "dropped" 1L);
        Sim.Engine.run eng;
        Sim.Probe.instant "dropped";
        checki "probes drop their events" 0
          (Trace.events_count (Option.get (Trace.current ()))))
  in
  check64 "now_f in a post" 7L !seen;
  Alcotest.(check (list (pair string int64))) "no spans" [] spans

(* ---- Shard (conservative PDES cluster) ---- *)

(* Mini cross-shard workload: every core runs rng-paced delays and
   sends a ring IPI to the next core every 4 ops.  Each core's event
   stream depends only on its own index, so all virtual-time outcomes
   are invariant across shard counts and execution modes. *)
let mini_cluster ~deterministic ~shards =
  let ncores = 6 and la = 1_000L in
  Sim.Shard.run ~deterministic ~shards ~lookahead:la (fun sh ->
      let n = Sim.Shard.shards sh in
      for core = 0 to ncores - 1 do
        if core mod n = Sim.Shard.sid sh then
          ignore
            (Sim.Engine.spawn (Sim.Shard.engine sh) ~core (fun () ->
                 let rng = Sim.Rng.create (500 + core) in
                 for op = 1 to 24 do
                   Sim.Engine.delay (Int64.of_int (1 + Sim.Rng.int rng 200));
                   if op mod 4 = 0 then begin
                     let target = (core + 1) mod ncores in
                     Sim.Shard.post sh ~to_:(target mod n)
                       ~at:(Int64.add (Sim.Engine.now_f ()) la)
                       (fun peer ->
                         ignore
                           (Sim.Engine.spawn (Sim.Shard.engine peer)
                              ~core:target (fun () ->
                                Sim.Engine.delay ~label:"ipi" 120L)))
                   end
                 done))
      done)

let shard_stats_key (s : Sim.Shard.stats) =
  (s.Sim.Shard.events, s.Sim.Shard.final_cycles, s.Sim.Shard.windows)

let shard_cluster_modes_agree =
  (* Satellite property: at any shard count, free-running domains and
     the deterministic single-domain replay reach identical terminal
     stats (including cross_posts — same partition), and every shard
     count reproduces the 1-shard virtual schedule. *)
  QCheck.Test.make ~name:"shard cluster: free == deterministic == 1-shard"
    ~count:12
    QCheck.(int_range 1 6)
    (fun shards ->
      let det = mini_cluster ~deterministic:true ~shards in
      let free = mini_cluster ~deterministic:false ~shards in
      let base = mini_cluster ~deterministic:true ~shards:1 in
      det.Sim.Shard.cross_posts = free.Sim.Shard.cross_posts
      && shard_stats_key det = shard_stats_key free
      && shard_stats_key det = shard_stats_key base)

let shard_post_enforces_lookahead () =
  (* A cross-shard post below now + lookahead breaks the conservative
     promise and must be rejected immediately; an intra-shard post at
     the same timestamp is fine. *)
  let saw = ref None in
  let stats =
    Sim.Shard.run ~deterministic:true ~shards:2 ~lookahead:1_000L (fun sh ->
        if Sim.Shard.sid sh = 0 then
          ignore
            (Sim.Engine.spawn (Sim.Shard.engine sh) ~core:0 (fun () ->
                 Sim.Engine.delay 10L;
                 Sim.Shard.post sh ~to_:0 ~at:500L (fun _ -> ());
                 (try Sim.Shard.post sh ~to_:1 ~at:500L (fun _ -> ())
                  with Invalid_argument m -> saw := Some m);
                 Sim.Shard.post sh ~to_:1 ~at:1_010L (fun _ -> ())))
        else
          ignore
            (Sim.Engine.spawn (Sim.Shard.engine sh) ~core:1 (fun () ->
                 Sim.Engine.delay 5L)))
  in
  Alcotest.(check bool) "violation raised" true (!saw <> None);
  checki "legal cross post delivered" 1 stats.Sim.Shard.cross_posts;
  Alcotest.check_raises "shards < 1 rejected"
    (Invalid_argument "Shard.run: shards must be >= 1") (fun () ->
      ignore (Sim.Shard.run ~shards:0 ~lookahead:1L (fun _ -> ())))

let shard_window_schedule_pinned () =
  (* The QCheck above only proves the modes agree with each other, so a
     change of delivery point that moved both together would pass it.
     The values were recorded before windows went to one barrier, and
     no change to the window protocol may move them. *)
  List.iter
    (fun (shards, cross, drains) ->
      List.iter
        (fun deterministic ->
          let s = mini_cluster ~deterministic ~shards in
          let what =
            Printf.sprintf "shards=%d %s" shards
              (if deterministic then "det" else "free")
          in
          checki (what ^ " events") 258 s.Sim.Shard.events;
          check64 (what ^ " final_cycles") 3788L s.Sim.Shard.final_cycles;
          checki (what ^ " windows") 4 s.Sim.Shard.windows;
          checki (what ^ " cross_posts") cross s.Sim.Shard.cross_posts;
          Alcotest.(check (array int))
            (what ^ " shard_drains") drains s.Sim.Shard.shard_drains;
          checki (what ^ " wait_s per shard") shards
            (Array.length s.Sim.Shard.wait_s);
          if deterministic then
            Alcotest.(check bool)
              (what ^ " no barrier wait") true
              (Array.for_all (fun w -> w = 0.) s.Sim.Shard.wait_s))
        [ true; false ])
    [ (1, 0, [| 0 |]); (2, 36, [| 18; 18 |]); (3, 36, [| 12; 12; 12 |]) ]

exception Boom of int

(* Run [f] on its own domain; a run still going after [limit] seconds
   fails the test instead of hanging the suite. *)
let within ~limit f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
  in
  let t0 = Unix.gettimeofday () in
  while not (Atomic.get finished) do
    if Unix.gettimeofday () -. t0 > limit then
      Alcotest.failf "Shard.run still running after %.0f s" limit;
    Unix.sleepf 0.005
  done;
  Domain.join d

(* Every shard's fiber runs [ops] rounds of work, each ending in a ring
   post to the next shard; [fail] makes one builder or one fiber raise
   [Boom sid].  Returns the exception [Shard.run] raised and the rounds
   each shard completed. *)
let failing_cluster ~deterministic ~shards ~fail =
  let ops = 40 and la = 500L in
  let rounds = Array.init shards (fun _ -> Atomic.make 0) in
  let build sh =
    let sid = Sim.Shard.sid sh and eng = Sim.Shard.engine sh in
    let next = (sid + 1) mod shards in
    (match fail with
    | `Build b when b = sid ->
        (* a failed builder's posts take the dead-shard path too *)
        Sim.Shard.post sh ~to_:next ~at:la (fun _ -> ());
        raise (Boom sid)
    | _ -> ());
    ignore
      (Sim.Engine.spawn eng ~core:sid (fun () ->
           for op = 1 to ops do
             Sim.Engine.delay 100L;
             (match fail with
             | `Fiber (b, at_op) when b = sid && op = at_op -> raise (Boom sid)
             | _ -> ());
             Sim.Shard.post sh ~to_:next
               ~at:(Int64.add (Sim.Engine.now_f ()) la)
               (fun peer ->
                 ignore
                   (Sim.Engine.spawn (Sim.Shard.engine peer) (fun () ->
                        Sim.Engine.delay 10L)));
             Atomic.incr rounds.(sid)
           done))
  in
  let raised =
    within ~limit:60. (fun () ->
        match Sim.Shard.run ~deterministic ~shards ~lookahead:la build with
        | _ -> None
        | exception Boom s -> Some s)
  in
  (raised, Array.map Atomic.get rounds, ops)

let shard_failure_reraised_after_join () =
  (* A failed shard must keep crossing the barrier as a drained shard:
     its peers run to completion, every domain joins, then [Shard.run]
     re-raises the failure. *)
  List.iter
    (fun (shards, deterministic, fail) ->
      let bad, bad_rounds, where =
        match fail with
        | `Fiber (b, at_op) -> (b, at_op - 1, "fiber")
        | `Build b -> (b, 0, "builder")
      in
      let what =
        Printf.sprintf "shards=%d %s %s on shard %d" shards
          (if deterministic then "det" else "free")
          where bad
      in
      let raised, rounds, ops = failing_cluster ~deterministic ~shards ~fail in
      Alcotest.(check (option int)) (what ^ ": re-raised") (Some bad) raised;
      Array.iteri
        (fun sid r ->
          checki
            (Printf.sprintf "%s: shard %d rounds" what sid)
            (if sid = bad then bad_rounds else ops)
            r)
        rounds)
    (List.concat_map
       (fun shards ->
         List.concat_map
           (fun deterministic ->
             List.map
               (fun fail -> (shards, deterministic, fail))
               [ `Fiber (1, 20); `Build 0; `Build (shards - 1) ])
           [ false; true ])
       [ 2; 3 ]);
  (* and the next cluster is unaffected *)
  checki "healthy run after failures" 258
    (mini_cluster ~deterministic:false ~shards:3).Sim.Shard.events

let sink_captures_and_restores () =
  let (), captured =
    Sim.Sink.capture (fun () ->
        Sim.Sink.printf "a=%d " 1;
        let (), inner = Sim.Sink.capture (fun () -> Sim.Sink.printf "inner") in
        check Alcotest.string "nested capture" "inner" inner;
        Sim.Sink.printf "b=%d" 2;
        Sim.Sink.print_newline ())
  in
  check Alcotest.string "outer capture" "a=1 b=2\n" captured

let engine_blocked_fibers_empty_when_clean () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.suspend (fun resume -> resume_cell := Some resume)));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 100L;
         Option.get !resume_cell ()));
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "nothing blocked after clean run" [] (Sim.Engine.blocked_fibers eng)

(* ---- Sync ---- *)

let mutex_excludes () =
  let eng = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 3 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           Sim.Sync.Mutex.lock m;
           incr inside;
           max_inside := max !max_inside !inside;
           Sim.Engine.delay 100L;
           decr inside;
           Sim.Sync.Mutex.unlock m))
  done;
  Sim.Engine.run eng;
  checki "mutual exclusion" 1 !max_inside;
  checki "acquisitions" 4 (Sim.Sync.Mutex.acquisitions m);
  Alcotest.(check bool) "contention recorded" true
    (Sim.Sync.Mutex.contended_cycles m > 0L)

let mutex_fifo () =
  let eng = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  let order = ref [] in
  for i = 0 to 3 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           Sim.Engine.delay (Int64.of_int i);
           (* stagger arrivals *)
           Sim.Sync.Mutex.lock m;
           order := i :: !order;
           Sim.Engine.delay 50L;
           Sim.Sync.Mutex.unlock m))
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3 ] (List.rev !order)

let resource_capacity () =
  let eng = Sim.Engine.create () in
  let r = Sim.Sync.Resource.create ~capacity:2 () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 5 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           Sim.Sync.Resource.acquire r;
           incr inside;
           max_inside := max !max_inside !inside;
           Sim.Engine.idle_wait 100L;
           decr inside;
           Sim.Sync.Resource.release r))
  done;
  Sim.Engine.run eng;
  checki "capacity bound" 2 !max_inside;
  (* 6 jobs, 2 at a time, 100 cycles each -> 300 cycles *)
  check64 "makespan" 300L (Sim.Engine.now eng)

let barrier_synchronizes_rounds () =
  let eng = Sim.Engine.create () in
  let b = Sim.Sync.Barrier.create ~parties:4 in
  let log = ref [] in
  for i = 0 to 3 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           for round = 1 to 3 do
             Sim.Engine.delay (Int64.of_int ((i * 13) + 5));
             log := (round, i) :: !log;
             Sim.Sync.Barrier.await b
           done))
  done;
  Sim.Engine.run eng;
  (* every fiber finishes round r before any fiber starts round r+1 *)
  let rounds = List.rev_map fst !log in
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "rounds in order" true (monotone rounds);
  checki "all events" 12 (List.length !log);
  checki "barrier reset" 0 (Sim.Sync.Barrier.waiting b)

let ivar_blocks_until_filled () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Sync.Ivar.create () in
  let got = ref 0 in
  ignore (Sim.Engine.spawn eng (fun () -> got := Sim.Sync.Ivar.read iv));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 200L;
         Sim.Sync.Ivar.fill iv 42));
  Sim.Engine.run eng;
  checki "value" 42 !got

let waitq_signal_broadcast () =
  let eng = Sim.Engine.create () in
  let q = Sim.Sync.Waitq.create () in
  let woke = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Sync.Waitq.wait q;
           incr woke))
  done;
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Alcotest.(check bool) "signal one" true (Sim.Sync.Waitq.signal q);
         Sim.Engine.delay 10L;
         checki "broadcast rest" 2 (Sim.Sync.Waitq.broadcast q)));
  Sim.Engine.run eng;
  checki "all woke" 3 !woke

(* ---- Costbuf ---- *)

let costbuf_charges_once () =
  let eng = Sim.Engine.create () in
  let ctx =
    Sim.Engine.spawn eng (fun () ->
        let b = Sim.Costbuf.create () in
        Sim.Costbuf.add b "x" 30L;
        Sim.Costbuf.add b "y" 70L;
        Sim.Costbuf.add b "x" 10L;
        check64 "total" 110L (Sim.Costbuf.total b);
        Sim.Costbuf.charge b;
        check64 "reset" 0L (Sim.Costbuf.total b))
  in
  Sim.Engine.run eng;
  check64 "time" 110L (Sim.Engine.now eng);
  check64 "label x" 40L (Sim.Engine.label_get ctx "x");
  check64 "label y" 70L (Sim.Engine.label_get ctx "y")

(* A batch is one engine event, and the observers see it as one
   unlabelled charge: no trace span, one profile span under its
   category, none per label.  ROADMAP item 7 is where that changes. *)
let costbuf_observed_as_one_charge () =
  let eng = Sim.Engine.create () in
  let spans, folded, _ =
    observed (fun () ->
        ignore
          (Sim.Engine.spawn eng ~name:"f" (fun () ->
               let b = Sim.Costbuf.create () in
               Sim.Costbuf.add b "x" 30L;
               Sim.Costbuf.add b "y" 80L;
               Sim.Costbuf.charge b));
        Sim.Engine.run eng)
  in
  checki "spawn + one charge" 2 (Sim.Engine.events eng);
  Alcotest.(check (list (pair string int64))) "not traced" [] spans;
  check Alcotest.string "one profile span" "f;sys 110\n" folded

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick pqueue_order;
          Alcotest.test_case "fifo on ties" `Quick pqueue_fifo_ties;
          Alcotest.test_case "min_time / pop_into bound" `Quick
            pqueue_min_time_bound;
          Alcotest.test_case "pop_into slot" `Quick pqueue_pop_into_slot;
          QCheck_alcotest.to_alcotest pqueue_prop;
          QCheck_alcotest.to_alcotest pqueue_vs_reference;
          Alcotest.test_case "releases popped payload" `Quick
            pqueue_releases_popped;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split" `Quick rng_split_independent;
          QCheck_alcotest.to_alcotest rng_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick engine_delay_advances_clock;
          Alcotest.test_case "accounting" `Quick engine_accounting;
          Alcotest.test_case "parallel overlap" `Quick engine_parallel_fibers_overlap;
          Alcotest.test_case "suspend/resume" `Quick engine_suspend_resume;
          Alcotest.test_case "idle on suspend" `Quick engine_idle_accounted_on_suspend;
          Alcotest.test_case "double resume" `Quick engine_double_resume_rejected;
          Alcotest.test_case "deterministic" `Quick engine_deterministic;
          Alcotest.test_case "fastpath invisible" `Quick
            engine_fastpath_matches_queued;
          Alcotest.test_case "blocked fibers named" `Quick
            engine_blocked_fibers_reports_deadlock;
          Alcotest.test_case "blocked fibers empty" `Quick
            engine_blocked_fibers_empty_when_clean;
          Alcotest.test_case "blocked report breakdown" `Quick
            engine_blocked_report_breaks_down_costs;
          Alcotest.test_case "post / run_until horizon" `Quick
            engine_post_and_run_until;
          Alcotest.test_case "schedule pinned" `Quick engine_schedule_pinned;
          Alcotest.test_case "blocked report line" `Quick
            engine_blocked_report_line;
        ] );
      ( "booking",
        [
          QCheck_alcotest.to_alcotest booking_contract;
          Alcotest.test_case "same-time resume unobserved" `Quick
            booking_same_time_resume;
          Alcotest.test_case "observers" `Quick booking_observers;
          Alcotest.test_case "outside a fiber" `Quick booking_outside_fiber;
        ] );
      ( "shard",
        [
          QCheck_alcotest.to_alcotest shard_cluster_modes_agree;
          Alcotest.test_case "lookahead enforced" `Quick
            shard_post_enforces_lookahead;
          Alcotest.test_case "window schedule pinned" `Quick
            shard_window_schedule_pinned;
          Alcotest.test_case "failure re-raised after join" `Quick
            shard_failure_reraised_after_join;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex excludes" `Quick mutex_excludes;
          Alcotest.test_case "mutex fifo" `Quick mutex_fifo;
          Alcotest.test_case "resource capacity" `Quick resource_capacity;
          Alcotest.test_case "barrier" `Quick barrier_synchronizes_rounds;
          Alcotest.test_case "ivar" `Quick ivar_blocks_until_filled;
          Alcotest.test_case "waitq" `Quick waitq_signal_broadcast;
        ] );
      ( "costbuf",
        [
          Alcotest.test_case "labels and charge" `Quick costbuf_charges_once;
          Alcotest.test_case "observed as one charge" `Quick
            costbuf_observed_as_one_charge;
        ] );
      ("sink", [ Alcotest.test_case "capture" `Quick sink_captures_and_restores ]);
    ]
