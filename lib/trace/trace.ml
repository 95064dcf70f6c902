(* Virtual-time tracing: preallocated per-core ring buffers of spans,
   instants and counters, exported as Chrome Trace Event JSON, CSV, or a
   top-N text summary.  The library is clock-agnostic: emitters stamp
   events with the simulator's virtual cycle count. *)

type kind = Span | Instant | Counter

type slot = {
  mutable ts : int64;
  mutable dur : int64;
  mutable core : int;
  mutable fiber : int;
  mutable kind : kind;
  mutable cat : string;
  mutable name : string;
  mutable value : int64;
  mutable has_value : bool;
  mutable seq : int;
}

let fresh_slot () =
  {
    ts = 0L;
    dur = 0L;
    core = 0;
    fiber = 0;
    kind = Instant;
    cat = "";
    name = "";
    value = 0L;
    has_value = false;
    seq = 0;
  }

type ring = {
  slots : slot array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

type t = {
  cap : int;
  max_cores : int;
  rings : ring option array; (* allocated lazily, whole ring at once *)
  mutable fibers : (int * int * string) list; (* fid, core, name (latest first) *)
  mutable next_seq : int;
}

let create ?(capacity_per_core = 4096) ?(max_cores = 64) () =
  if capacity_per_core <= 0 then invalid_arg "Trace.create: capacity";
  if max_cores <= 0 then invalid_arg "Trace.create: max_cores";
  {
    cap = capacity_per_core;
    max_cores;
    rings = Array.make max_cores None;
    fibers = [];
    next_seq = 0;
  }

(* ---- ambient observers ----

   The tracer and the profiler of a domain sit in one domain-local
   record, so each domain of a parallel experiment fan-out owns
   independent observers (or none).  The [on] probe, hit on every engine
   event, reads a process-wide count of domains holding either observer
   instead of domain-local storage: an Atomic.get is a plain load,
   several times cheaper than a DLS fetch.  A domain without observers
   while another has some sees [on () = true] and then finds no tracer
   and no profiler, so its probes stay correct, just not free — and the
   CLI forces a sequential run under either observer anyway. *)

type observers = {
  mutable tracer : t option;
  mutable profiler : Metrics.Profile.t option;
}

let live = Atomic.make 0

let ambient_key : observers Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tracer = None; profiler = None })

let[@inline] on () = Atomic.get live > 0
let observers () = Domain.DLS.get ambient_key

(* Applies [f] to this domain's record, keeping [live] a count of the
   domains that hold an observer. *)
let update f =
  let o = observers () in
  let held o = Option.is_some o.tracer || Option.is_some o.profiler in
  let before = held o in
  f o;
  match (before, held o) with
  | false, true -> Atomic.incr live
  | true, false -> Atomic.decr live
  | _ -> ()

let start ?capacity_per_core ?max_cores () =
  let t = create ?capacity_per_core ?max_cores () in
  update (fun o -> o.tracer <- Some t);
  t

let stop () =
  let t = (observers ()).tracer in
  update (fun o -> o.tracer <- None);
  t

let current () = (observers ()).tracer
let start_profile p = update (fun o -> o.profiler <- Some p)
let stop_profile () = update (fun o -> o.profiler <- None)

(* ---- emission ---- *)

let ring_of t core =
  let core = if core < 0 then 0 else if core >= t.max_cores then t.max_cores - 1 else core in
  match t.rings.(core) with
  | Some r -> r
  | None ->
      let r =
        { slots = Array.init t.cap (fun _ -> fresh_slot ()); head = 0; len = 0; dropped = 0 }
      in
      t.rings.(core) <- Some r;
      r

let emit t ~ts ~dur ~core ~fiber ~kind ~cat ~value ~has_value name =
  let core =
    if core < 0 then 0 else if core >= t.max_cores then t.max_cores - 1 else core
  in
  let r = ring_of t core in
  let s = r.slots.(r.head) in
  if r.len = t.cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1;
  r.head <- (r.head + 1) mod t.cap;
  s.ts <- ts;
  s.dur <- dur;
  s.core <- core;
  s.fiber <- fiber;
  s.kind <- kind;
  s.cat <- cat;
  s.name <- name;
  s.value <- value;
  s.has_value <- has_value;
  s.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1

let span t ~ts ~dur ~core ~fiber ~cat ?value name =
  let value, has_value =
    match value with Some v -> (v, true) | None -> (0L, false)
  in
  emit t ~ts ~dur ~core ~fiber ~kind:Span ~cat ~value ~has_value name

let instant t ~ts ~core ~fiber ~cat ?value name =
  let value, has_value =
    match value with Some v -> (v, true) | None -> (0L, false)
  in
  emit t ~ts ~dur:0L ~core ~fiber ~kind:Instant ~cat ~value ~has_value name

let counter t ~ts ~core ~cat ~value name =
  emit t ~ts ~dur:0L ~core ~fiber:0 ~kind:Counter ~cat ~value ~has_value:true name

let declare_fiber t ~fiber ~core ~name = t.fibers <- (fiber, core, name) :: t.fibers

(* ---- inspection ---- *)

let events_count t =
  Array.fold_left
    (fun acc r -> match r with Some r -> acc + r.len | None -> acc)
    0 t.rings

let dropped t =
  Array.fold_left
    (fun acc r -> match r with Some r -> acc + r.dropped | None -> acc)
    0 t.rings

(* Events of one ring, oldest first. *)
let ring_events r =
  let out = ref [] in
  for i = r.len - 1 downto 0 do
    let idx = (r.head - 1 - i + (2 * Array.length r.slots)) mod Array.length r.slots in
    out := r.slots.(idx) :: !out
  done;
  List.rev !out

(* All retained events sorted by (ts, seq); seq is unique so the order is
   total and runs with the same seed export byte-identical files. *)
let sorted_events t =
  let all =
    Array.to_list t.rings
    |> List.concat_map (function Some r -> ring_events r | None -> [])
  in
  List.stable_sort
    (fun a b ->
      match Int64.compare a.ts b.ts with 0 -> Int.compare a.seq b.seq | c -> c)
    all

let iter_events t f = List.iter f (sorted_events t)

type event = {
  ev_ts : int64;
  ev_dur : int64;
  ev_core : int;
  ev_fiber : int;
  ev_kind : kind;
  ev_cat : string;
  ev_name : string;
  ev_value : int64 option;
}

let events t =
  List.map
    (fun s ->
      {
        ev_ts = s.ts;
        ev_dur = s.dur;
        ev_core = s.core;
        ev_fiber = s.fiber;
        ev_kind = s.kind;
        ev_cat = s.cat;
        ev_name = s.name;
        ev_value = (if s.has_value then Some s.value else None);
      })
    (sorted_events t)

(* Cores that hold events or declared fibers, ascending. *)
let cores_used t =
  let seen = Array.make t.max_cores false in
  Array.iteri (fun i r -> match r with Some r when r.len > 0 -> seen.(i) <- true | _ -> ()) t.rings;
  List.iter
    (fun (_, core, _) ->
      if core >= 0 && core < t.max_cores then seen.(core) <- true)
    t.fibers;
  let out = ref [] in
  for i = t.max_cores - 1 downto 0 do
    if seen.(i) then out := i :: !out
  done;
  !out

(* Declared fibers, ascending fid, first declaration wins. *)
let fibers_declared t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (fid, core, name) -> Hashtbl.replace tbl fid (core, name))
    (List.rev t.fibers);
  Hashtbl.fold (fun fid (core, name) acc -> (fid, core, name) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

(* ---- Chrome Trace Event JSON ---- *)

let add_meta buf ~first ~name ~pid ?tid ~arg () =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf
    (Printf.sprintf "{\"ph\":\"M\",\"name\":\"%s\",\"pid\":%d" name pid);
  (match tid with
  | Some tid -> Buffer.add_string buf (Printf.sprintf ",\"tid\":%d" tid)
  | None -> ());
  Buffer.add_string buf ",\"args\":{\"name\":\"";
  Buffer.add_string buf (Metrics.Export.json_escape arg);
  Buffer.add_string buf "\"}}"

(* One virtual cycle is exported as one trace microsecond; Perfetto and
   chrome://tracing render the axis in "us" that should be read as cycles. *)
let chrome_json_buf t buf =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let cores = cores_used t in
  List.iter
    (fun core ->
      add_meta buf ~first ~name:"process_name" ~pid:core
        ~arg:(Printf.sprintf "core %d" core) ();
      add_meta buf ~first ~name:"thread_name" ~pid:core ~tid:0 ~arg:"hw" ())
    cores;
  List.iter
    (fun (fid, core, name) ->
      add_meta buf ~first ~name:"thread_name" ~pid:core ~tid:fid
        ~arg:(Printf.sprintf "%s/%d" name fid) ())
    (fibers_declared t);
  iter_events t (fun s ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Buffer.add_string buf "{\"name\":\"";
      Buffer.add_string buf (Metrics.Export.json_escape s.name);
      Buffer.add_string buf "\",\"cat\":\"";
      Buffer.add_string buf (Metrics.Export.json_escape s.cat);
      Buffer.add_string buf "\",";
      (match s.kind with
      | Span ->
          Buffer.add_string buf
            (Printf.sprintf "\"ph\":\"X\",\"ts\":%Ld,\"dur\":%Ld,\"pid\":%d,\"tid\":%d"
               s.ts s.dur s.core s.fiber)
      | Instant ->
          Buffer.add_string buf
            (Printf.sprintf "\"ph\":\"i\",\"s\":\"t\",\"ts\":%Ld,\"pid\":%d,\"tid\":%d"
               s.ts s.core s.fiber)
      | Counter ->
          Buffer.add_string buf
            (Printf.sprintf "\"ph\":\"C\",\"ts\":%Ld,\"pid\":%d" s.ts s.core));
      (match s.kind with
      | Counter ->
          Buffer.add_string buf (Printf.sprintf ",\"args\":{\"value\":%Ld}" s.value)
      | Span | Instant ->
          if s.has_value then
            Buffer.add_string buf (Printf.sprintf ",\"args\":{\"v\":%Ld}" s.value));
      Buffer.add_string buf "}");
  Buffer.add_string buf
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\",\"dropped\":%d}}\n"
       (dropped t))

let chrome_json t =
  let buf = Buffer.create 65536 in
  chrome_json_buf t buf;
  Buffer.contents buf

let write_chrome_json t path =
  let oc = open_out path in
  let buf = Buffer.create 65536 in
  chrome_json_buf t buf;
  Buffer.output_buffer oc buf;
  close_out oc

(* ---- CSV ---- *)

let kind_name = function Span -> "span" | Instant -> "instant" | Counter -> "counter"

let csv t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "ts,seq,kind,core,fiber,cat,name,dur,value\n";
  iter_events t (fun s ->
      (* cat/name are free-form probe strings — RFC 4180-escape them so a
         comma or quote in a label cannot shift the remaining columns *)
      Buffer.add_string buf
        (Printf.sprintf "%Ld,%d,%s,%d,%d,%s,%s,%Ld,%s\n" s.ts s.seq
           (kind_name s.kind) s.core s.fiber
           (Metrics.Export.csv_field s.cat)
           (Metrics.Export.csv_field s.name)
           s.dur
           (if s.has_value then Int64.to_string s.value else "")));
  Buffer.contents buf

let write_csv t path =
  let oc = open_out path in
  output_string oc (csv t);
  close_out oc

(* ---- top-N span summary ---- *)

type span_stat = {
  ss_cat : string;
  ss_name : string;
  ss_count : int;
  ss_total : int64;
}

let summary ?(top = 20) t =
  let tbl = Hashtbl.create 64 in
  iter_events t (fun s ->
      if s.kind = Span then begin
        let key = (s.cat, s.name) in
        let count, total =
          try Hashtbl.find tbl key with Not_found -> (0, 0L)
        in
        Hashtbl.replace tbl key (count + 1, Int64.add total s.dur)
      end);
  let all =
    Hashtbl.fold
      (fun (cat, name) (count, total) acc ->
        { ss_cat = cat; ss_name = name; ss_count = count; ss_total = total } :: acc)
      tbl []
  in
  let sorted =
    List.sort
      (fun a b ->
        match Int64.compare b.ss_total a.ss_total with
        | 0 -> compare (a.ss_cat, a.ss_name) (b.ss_cat, b.ss_name)
        | c -> c)
      all
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take top sorted

let print_summary ?top t =
  let stats = summary ?top t in
  Printf.printf "%-10s %-24s %10s %14s %10s\n" "cat" "span" "count" "cycles" "avg";
  List.iter
    (fun s ->
      Printf.printf "%-10s %-24s %10d %14Ld %10.0f\n" s.ss_cat s.ss_name s.ss_count
        s.ss_total
        (if s.ss_count = 0 then 0.
         else Int64.to_float s.ss_total /. float_of_int s.ss_count))
    stats;
  Printf.printf "events: %d  dropped: %d\n" (events_count t) (dropped t)
