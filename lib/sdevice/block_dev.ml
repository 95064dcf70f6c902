let psz = Hw.Defs.page_size

type t = {
  dname : string;
  qd_name : string; (* precomputed counter label: no allocation per event *)
  dstore : Pagestore.t;
  q_subs : int array; (* submissions per SQ; SQ = submitting core mod queues *)
  channels : Sim.Sync.Resource.t;
  setup : int64;
  per_byte : float;
  cap : int64;
  (* always-on aqmetrics cells, one series per device name *)
  m_reads : Metrics.Registry.cell;
  m_writes : Metrics.Registry.cell;
  m_errors : Metrics.Registry.cell;
  m_spikes : Metrics.Registry.cell;
  m_qdepth : Metrics.Registry.hcell;
}

let create ?(queues = 1) ~name ~channels ~setup_cycles ~cycles_per_byte
    ~capacity_bytes () =
  if queues < 1 then invalid_arg (name ^ ": queues must be >= 1");
  let labels = [ ("dev", name) ] in
  {
    dname = name;
    qd_name = name ^ ":queue_depth";
    dstore = Pagestore.create ();
    q_subs = Array.make queues 0;
    channels = Sim.Sync.Resource.create ~name ~capacity:channels ();
    setup = setup_cycles;
    per_byte = cycles_per_byte;
    cap = capacity_bytes;
    m_reads =
      Metrics.Registry.counter ~help:"read I/Os completed" ~labels
        "sdevice_reads";
    m_writes =
      Metrics.Registry.counter ~help:"write I/Os completed" ~labels
        "sdevice_writes";
    m_errors =
      Metrics.Registry.counter ~help:"injected I/O errors surfaced" ~labels
        "sdevice_errors";
    m_spikes =
      Metrics.Registry.counter ~help:"injected latency spikes" ~labels
        "sdevice_spikes";
    m_qdepth =
      Metrics.Registry.histogram ~help:"channel occupancy at dispatch" ~labels
        "sdevice_queue_depth";
  }

let name t = t.dname
let store t = t.dstore
let capacity_bytes t = t.cap
let setup_cycles t = t.setup

let service_time t ~len =
  Int64.add t.setup (Int64.of_float (float_of_int len *. t.per_byte))

let check_range t addr len =
  if Int64.compare addr 0L < 0 || len < 0
     || Int64.compare (Int64.add addr (Int64.of_int len)) t.cap > 0
  then invalid_arg (t.dname ^ ": I/O outside device capacity")

(* First device page and page count a byte span touches — the units the
   fault plan reasons in. *)
let page_span addr len =
  let p = Int64.of_int psz in
  let p0 = Int64.to_int (Int64.div addr p) in
  let last = Int64.add addr (Int64.of_int (max 0 (len - 1))) in
  let p1 = Int64.to_int (Int64.div last p) in
  (p0, p1 - p0 + 1)

(* The submit→complete span covers queueing for a device channel plus the
   transfer itself; the counter samples channel occupancy at dispatch.
   [spike] stretches the service time (injected latency spike). *)
let occupy t ~polling ~len ~spike =
  let io0 = Sim.Probe.span_start () in
  (* Submission queue: per-core SQs as in NVMe — submitting never
     serializes against other cores' SQs; only the channel Resource
     below (the device's internal parallelism) queues requests. *)
  let q =
    let nq = Array.length t.q_subs in
    if nq = 1 then 0
    else begin
      let q = (Sim.Engine.self ()).Sim.Engine.core mod nq in
      if q < 0 then q + nq else q
    end
  in
  t.q_subs.(q) <- t.q_subs.(q) + 1;
  Sim.Sync.Resource.acquire t.channels;
  Metrics.Registry.observe t.m_qdepth (Sim.Sync.Resource.in_use t.channels);
  if Trace.on () then
    Sim.Probe.counter ~cat:"sdevice" t.qd_name
      (Int64.of_int (Sim.Sync.Resource.in_use t.channels));
  let service = service_time t ~len in
  let service =
    if spike > 1 then Int64.mul service (Int64.of_int spike) else service
  in
  if polling then Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_device" service
  else Sim.Engine.idle_wait ~label:"io_device" service;
  Sim.Sync.Resource.release t.channels;
  Sim.Probe.span_since ~cat:"sdevice" ~value:(Int64.of_int len) ~t0:io0 t.dname

let spike_of t plan =
  let s = Fault.draw_spike plan in
  if s > 1 then begin
    Metrics.Registry.incr t.m_spikes;
    if Trace.on () then Sim.Probe.instant ~cat:"fault" "latency_spike"
  end;
  s

let read_result ?(polling = false) t ~addr ~len ~dst ~dst_off =
  check_range t addr len;
  match Fault.active () with
  | None ->
      occupy t ~polling ~len ~spike:1;
      Pagestore.read_bytes t.dstore ~addr ~len ~dst ~dst_off;
      Metrics.Registry.incr t.m_reads;
      Ok ()
  | Some plan -> (
      let page, count = page_span addr len in
      occupy t ~polling ~len ~spike:(spike_of t plan);
      match Fault.draw_read plan ~dev:t.dname ~page ~count with
      | Some e ->
          Metrics.Registry.incr t.m_errors;
          if Trace.on () then Sim.Probe.instant ~cat:"fault" "read_error";
          Error e
      | None ->
          Pagestore.read_bytes t.dstore ~addr ~len ~dst ~dst_off;
          Metrics.Registry.incr t.m_reads;
          Ok ())

(* The store is only mutated once the channel occupancy completed: an
   injected [Crash] mid-service aborts before any byte lands, so an
   in-flight write is all-or-nothing.  Partial persistence only ever
   comes from an explicit torn-write injection, which persists a page
   prefix of the span and then reports a transient error. *)
let write_result ?(polling = false) t ~addr ~src ~src_off ~len =
  check_range t addr len;
  match Fault.active () with
  | None ->
      occupy t ~polling ~len ~spike:1;
      Pagestore.write_bytes t.dstore ~addr ~src ~src_off ~len;
      Metrics.Registry.incr t.m_writes;
      Ok ()
  | Some plan -> (
      let page, count = page_span addr len in
      occupy t ~polling ~len ~spike:(spike_of t plan);
      match Fault.draw_write plan ~dev:t.dname ~page ~count with
      | Fault.W_ok ->
          Pagestore.write_bytes t.dstore ~addr ~src ~src_off ~len;
          Metrics.Registry.incr t.m_writes;
          Ok ()
      | Fault.W_error e ->
          Metrics.Registry.incr t.m_errors;
          if Trace.on () then Sim.Probe.instant ~cat:"fault" "write_error";
          Error e
      | Fault.W_torn keep ->
          let keep_bytes =
            let span_end = Int64.of_int ((page + keep) * psz) in
            max 0 (min len (Int64.to_int (Int64.sub span_end addr)))
          in
          if keep_bytes > 0 then
            Pagestore.write_bytes t.dstore ~addr ~src ~src_off ~len:keep_bytes;
          Metrics.Registry.incr t.m_errors;
          if Trace.on () then Sim.Probe.instant ~cat:"fault" "torn_write";
          Error Fault.Transient)

let read ?polling t ~addr ~len ~dst ~dst_off =
  match read_result ?polling t ~addr ~len ~dst ~dst_off with
  | Ok () -> ()
  | Error e ->
      raise
        (Fault.Io_error
           { dev = t.dname; write = false; page = fst (page_span addr len); error = e })

let write ?polling t ~addr ~src ~src_off ~len =
  match write_result ?polling t ~addr ~src ~src_off ~len with
  | Ok () -> ()
  | Error e ->
      raise
        (Fault.Io_error
           { dev = t.dname; write = true; page = fst (page_span addr len); error = e })

let queues t = Array.length t.q_subs
let queue_submissions t = Array.copy t.q_subs
