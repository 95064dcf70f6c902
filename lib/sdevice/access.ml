type entry = From_user | From_guest | In_kernel

type t = {
  aname : string;
  do_read : page:int -> count:int -> dst:Bytes.t -> (unit, Fault.error) result;
  do_write : page:int -> count:int -> src:Bytes.t -> (unit, Fault.error) result;
}

let psz = Hw.Defs.page_size
let name t = t.aname

let check ~count ~buf =
  if count <= 0 then invalid_arg "Access: count must be positive";
  if Bytes.length buf < count * psz then invalid_arg "Access: buffer too small"

let entry_cost (c : Hw.Costs.t) = function
  | From_user -> c.syscall
  | From_guest -> c.vmcall_roundtrip
  | In_kernel -> 0L

let addr_of page = Int64.mul (Int64.of_int page) (Int64.of_int psz)

let dax_pmem costs ?(simd = true) pmem =
  let aname = if simd then "DAX-pmem" else "DAX-pmem-scalar" in
  (* DAX copies complete synchronously, but NVM media errors are as real
     as NVMe ones (machine-check on load, failed store): consult the
     plan per copy.  A torn injection models an interrupted NT-store
     sequence — a page-aligned prefix of the span lands. *)
  let rw ~write ~page ~count buf =
    let charge cost = Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_memcpy" cost in
    let copy len =
      if len > 0 then
        if write then
          charge (Pmem.dax_write pmem costs ~simd ~addr:(addr_of page) ~src:buf ~src_off:0 ~len)
        else
          charge (Pmem.dax_read pmem costs ~simd ~addr:(addr_of page) ~len ~dst:buf ~dst_off:0)
    in
    match Fault.active () with
    | None ->
        copy (count * psz);
        Ok ()
    | Some plan ->
        if write then (
          match Fault.draw_write plan ~dev:aname ~page ~count with
          | Fault.W_ok ->
              copy (count * psz);
              Ok ()
          | Fault.W_error e ->
              if Trace.on () then Sim.Probe.instant ~cat:"fault" "write_error";
              Error e
          | Fault.W_torn keep ->
              if Trace.on () then Sim.Probe.instant ~cat:"fault" "torn_write";
              copy (keep * psz);
              Error Fault.Transient)
        else (
          match Fault.draw_read plan ~dev:aname ~page ~count with
          | Some e ->
              if Trace.on () then Sim.Probe.instant ~cat:"fault" "read_error";
              Error e
          | None ->
              copy (count * psz);
              Ok ())
  in
  {
    aname;
    do_read = (fun ~page ~count ~dst -> rw ~write:false ~page ~count dst);
    do_write = (fun ~page ~count ~src -> rw ~write:true ~page ~count src);
  }

let spdk_nvme (costs : Hw.Costs.t) dev =
  (* SPDK submission/completion is a few hundred cycles of user-space
     driver code; completion is polled so device time burns CPU. *)
  let driver = 400L in
  let submit () = Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_driver" driver in
  ignore costs;
  {
    aname = "SPDK-NVMe";
    do_read =
      (fun ~page ~count ~dst ->
        submit ();
        Block_dev.read_result ~polling:true dev ~addr:(addr_of page)
          ~len:(count * psz) ~dst ~dst_off:0);
    do_write =
      (fun ~page ~count ~src ->
        submit ();
        Block_dev.write_result ~polling:true dev ~addr:(addr_of page) ~src
          ~src_off:0 ~len:(count * psz));
  }

let host_block ~aname (costs : Hw.Costs.t) ~entry ~wakeup ?(bounce = false) dev =
  let enter = entry_cost costs entry in
  (* Syscall entries additionally pay the VFS direct-I/O machinery (file
     position checks, iov setup, block mapping); the kernel fault path
     reaches the block layer directly (readpage). *)
  let vfs = match entry with In_kernel -> 0L | From_user | From_guest -> 5200L in
  (* Direct I/O from another protection domain bounces through a kernel
     buffer: one scalar page copy. *)
  let bounce_cost =
    match entry with
    | In_kernel -> 0L
    | From_user | From_guest -> if bounce then costs.memcpy_4k_scalar else 0L
  in
  let soft = Int64.add (Int64.add costs.kernel_block_layer vfs) bounce_cost in
  let prologue () =
    if Int64.compare enter 0L > 0 then
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_syscall" enter;
    Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_kernel" soft
  in
  let epilogue () =
    if wakeup then
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_kernel" costs.sched_wakeup
  in
  {
    aname;
    do_read =
      (fun ~page ~count ~dst ->
        prologue ();
        let r =
          Block_dev.read_result dev ~addr:(addr_of page) ~len:(count * psz) ~dst
            ~dst_off:0
        in
        epilogue ();
        r);
    do_write =
      (fun ~page ~count ~src ->
        prologue ();
        let r =
          Block_dev.write_result dev ~addr:(addr_of page) ~src ~src_off:0
            ~len:(count * psz)
        in
        epilogue ();
        r);
  }

(* io_uring: one submission syscall covers a batch of SQEs; completions
   are read from the shared ring without any kernel entry. *)
let uring_batch = 16

let uring_nvme (costs : Hw.Costs.t) ~entry dev =
  let enter = entry_cost costs entry in
  let sqe = 350L (* prepare SQE + ring bookkeeping *) in
  let prologue () =
    Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_syscall"
      (Int64.div enter (Int64.of_int uring_batch));
    Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_kernel"
      (Int64.add sqe (Int64.div costs.kernel_block_layer 2L))
  in
  {
    aname = "io_uring-NVMe";
    do_read =
      (fun ~page ~count ~dst ->
        prologue ();
        Block_dev.read_result dev ~addr:(addr_of page) ~len:(count * psz) ~dst
          ~dst_off:0);
    do_write =
      (fun ~page ~count ~src ->
        prologue ();
        Block_dev.write_result dev ~addr:(addr_of page) ~src ~src_off:0
          ~len:(count * psz));
  }

let host_pmem costs ~entry pmem =
  (* pmem completes synchronously in the submitting context: no interrupt,
     no scheduler wakeup. *)
  host_block ~aname:"HOST-pmem" costs ~entry ~wakeup:false ~bounce:true
    (Pmem.block_dev pmem)

let host_nvme costs ~entry dev =
  host_block ~aname:"HOST-NVMe" costs ~entry ~wakeup:true dev

(* Retry policy (DESIGN.md §7): transient failures are retried up to
   [max_attempts] times with exponential backoff in virtual time —
   20k cycles (~8 µs at 2.6 GHz), doubling per attempt, charged as idle
   under the "io_retry" label.  Permanent failures and exhausted retries
   surface to the caller. *)
let max_attempts = 5
let backoff_base = 20_000L

(* No per-instance record to hang a metric cell on here, and cells are
   domain-local — so bind one per domain, lazily, through DLS.  Retries
   are rare enough that the DLS lookup is irrelevant. *)
let m_retries_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"transient I/O retries (with backoff)"
        "sdevice_io_retries")

let rec attempt_io ~write t ~page ~count ~buf n =
  let r =
    if write then t.do_write ~page ~count ~src:buf
    else t.do_read ~page ~count ~dst:buf
  in
  match r with
  | Ok () -> Ok ()
  | Error Fault.Permanent as e -> e
  | Error Fault.Transient as e ->
      if n >= max_attempts then e
      else begin
        (match Fault.active () with Some p -> Fault.note_retry p | None -> ());
        Metrics.Registry.incr (Domain.DLS.get m_retries_key);
        if Trace.on () then Sim.Probe.instant ~cat:"fault" "io_retry";
        let backoff = Int64.mul backoff_base (Int64.shift_left 1L (n - 1)) in
        Sim.Engine.idle_wait ~label:"io_retry" backoff;
        attempt_io ~write t ~page ~count ~buf (n + 1)
      end

let read_pages_result t ~page ~count ~dst =
  check ~count ~buf:dst;
  let t0 = Sim.Probe.span_start () in
  let r = attempt_io ~write:false t ~page ~count ~buf:dst 1 in
  Sim.Probe.span_since ~cat:"sdevice" ~value:(Int64.of_int count) ~t0 "dev_read";
  r

let write_pages_result t ~page ~count ~src =
  check ~count ~buf:src;
  let t0 = Sim.Probe.span_start () in
  let r = attempt_io ~write:true t ~page ~count ~buf:src 1 in
  Sim.Probe.span_since ~cat:"sdevice" ~value:(Int64.of_int count) ~t0 "dev_write";
  r

let read_pages t ~page ~count ~dst =
  match read_pages_result t ~page ~count ~dst with
  | Ok () -> ()
  | Error e ->
      raise (Fault.Io_error { dev = t.aname; write = false; page; error = e })

let write_pages t ~page ~count ~src =
  match write_pages_result t ~page ~count ~src with
  | Ok () -> ()
  | Error e ->
      raise (Fault.Io_error { dev = t.aname; write = true; page; error = e })

let read_page t ~page ~dst = read_pages t ~page ~count:1 ~dst
let write_page t ~page ~src = write_pages t ~page ~count:1 ~src

(* Sorted, merged write-back (Section 3.2; the Linux page cache merges the
   same way).  Every page is translated and every run's bytes staged before
   the first write, so a translation cost the caller charges in [dev] lands
   before the I/O, and a frame the caller has already marked clean can be
   reused by an eviction during an earlier run's write without the later
   run sending its new bytes to the device. *)
let write_merged staging ~merge ~cat ~key ~file ~dev ~access ~data ~written
    items =
  let t0 = Sim.Probe.span_start () in
  let sorted = List.sort (fun a b -> Int.compare (key a) (key b)) items in
  let runs = ref [] and run = ref [] in
  let run_file = ref 0 and start = ref 0 and next = ref 0 in
  let close () =
    if !run <> [] then
      runs := (!run_file, !start, !next - !start, List.rev !run) :: !runs
  in
  List.iter
    (fun x ->
      match dev x with
      | None -> ()
      | Some d ->
          let f = file x in
          if !run <> [] && f = !run_file && d = !next && !next - !start < merge
          then begin
            run := x :: !run;
            incr next
          end
          else begin
            close ();
            run_file := f;
            start := d;
            next := d + 1;
            run := [ x ]
          end)
    sorted;
  close ();
  let write ((f, page, count, run), src) =
    match write_pages_result (access f) ~page ~count ~src with
    | Ok () ->
        written count;
        []
    | Error e ->
        if Trace.on () then Sim.Probe.instant ~cat:"fault" "wb_error";
        List.map (fun x -> (x, e)) run
  in
  (* each run holds its own pooled buffer until every write has returned *)
  let rec stage staged = function
    | [] -> List.concat_map write (List.rev staged)
    | ((_, _, count, run) as r) :: rest ->
        Bufpool.with_pages staging count (fun src ->
            List.iteri (fun i x -> Bytes.blit (data x) 0 src (i * psz) psz) run;
            stage ((r, src) :: staged) rest)
  in
  let failed = stage [] (List.rev !runs) in
  if items <> [] then
    Sim.Probe.span_since ~cat ~value:(Int64.of_int (List.length items)) ~t0
      "writeback";
  failed
