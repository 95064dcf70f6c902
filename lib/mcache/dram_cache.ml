let psz = Hw.Defs.page_size

type config = {
  frames : int;
  max_frames : int;
  evict_batch : int;
  core_queue_limit : int;
  move_batch : int;
  writeback_merge : int;
  ipi_mode : Hw.Ipi.send_mode;
  readahead : int;
  wb_protect : bool;
  policy : Policy.kind;
}

let default_config ~frames =
  {
    frames;
    max_frames = frames;
    (* The paper evicts 512-page batches with one shootdown each, past
       Linux's 33-page tlb_single_page_flush_ceiling
       (Hw.Ipi.full_flush_above): every batch is one full TLB flush per
       core.  A 64th of the cache keeps victims good in large caches,
       but under 2,176 frames it would not pass the ceiling and would
       pay one invlpg per page on every core instead.  So the batch is
       never smaller than the smallest one past the ceiling
       (DESIGN.md §2). *)
    evict_batch = max (Hw.Ipi.full_flush_above + 1) (frames / 64);
    core_queue_limit = 512;
    move_batch = 256;
    writeback_merge = 64;
    ipi_mode = Hw.Ipi.Vmexit_send;
    readahead = 0;
    wb_protect = true;
    policy = Policy.Clock;
  }

type frame = {
  fno : int;
  data : Bytes.t;
  mutable key : int; (* -1 when free *)
  mutable vpn : int; (* -1 when unmapped *)
  mutable dirty : bool;
  mutable dirty_core : int;
  mutable retired : bool;
}

type backend = { access : Sdevice.Access.t; translate : int -> int option }

type t = {
  costs : Hw.Costs.t;
  machine : Hw.Machine.t;
  pt : Hw.Page_table.t;
  cfg : config;
  arr : frame array;
  (* Aquila's lock-free hash table (David et al., ASPLOS '15): it takes no
     lock, so concurrent faults never serialize on it, and callers charge
     each probe ([hash_lookup]) and each CAS install or removal
     ([hash_update]).  [drop_file] frees frames in this table's iteration
     order, so its initial size and hash are part of the simulated
     output. *)
  index : (int, frame) Hashtbl.t;
  fl : Freelist.t;
  pol : Policy.t;
  evict_label : string;
  dirty : Dirty_set.t;
  files : (int, backend) Hashtbl.t;
  inflight : (int, unit Sim.Sync.Ivar.t) Hashtbl.t;
  staging : Sdevice.Bufpool.pages; (* readahead and write-back runs *)
  mutable evicting : bool;
  evict_waiters : Sim.Sync.Waitq.t;
  wb_waitq : Sim.Sync.Waitq.t;
  mutable wb_daemon : (int * int) option; (* (hi, lo) watermarks when active *)
  mutable shoot_cores : int list;
  mutable seeded : int;
  mutable retired_frames : int list;
  mutable retired_count : int; (* List.length retired_frames, maintained *)
  mutable s_fault_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_wb_ios : int;
  mutable s_wb_pages : int;
  mutable s_read_ios : int;
  mutable s_read_pages : int;
  mutable s_inflight_waits : int;
  mutable s_wb_errors : int;
  mutable s_sigbus : int;
  mutable wb_fail_streak : int; (* consecutive write-back rounds with failures *)
  mutable read_only : bool; (* degraded: error storm made write-back unsafe *)
  (* always-on aqmetrics cells, one series per replacement policy *)
  m_hits : Metrics.Registry.cell;
  m_misses : Metrics.Registry.cell;
  m_evictions : Metrics.Registry.cell;
  m_wb_ios : Metrics.Registry.cell;
  m_wb_pages : Metrics.Registry.cell;
  m_wb_errors : Metrics.Registry.cell;
  m_sigbus : Metrics.Registry.cell;
  m_degraded : Metrics.Registry.cell;
}

let create ~costs ~machine ~page_table cfg =
  if cfg.frames <= 0 || cfg.max_frames < cfg.frames then
    invalid_arg "Dram_cache.create: bad frame counts";
  let topo = Hw.Machine.topology machine in
  let labels = [ ("policy", Policy.kind_to_string cfg.policy) ] in
  let t =
    {
      costs;
      machine;
      pt = page_table;
      cfg;
      arr =
        Array.init cfg.max_frames (fun i ->
            {
              fno = i;
              data = Bytes.create psz;
              key = -1;
              vpn = -1;
              dirty = false;
              dirty_core = 0;
              retired = false;
            });
      index = Hashtbl.create 1024;
      fl =
        Freelist.create costs topo ~core_queue_limit:cfg.core_queue_limit
          ~move_batch:cfg.move_batch ();
      pol = Policy.make costs ~nframes:cfg.max_frames cfg.policy;
      (* the default policy keeps the historical span name so existing
         trace consumers (and byte-identity) are untouched *)
      evict_label =
        (match cfg.policy with
        | Policy.Clock -> "evict_batch"
        | k -> "evict_batch:" ^ Policy.kind_to_string k);
      dirty = Dirty_set.create costs ~cores:topo.Hw.Topology.cores;
      files = Hashtbl.create 16;
      inflight = Hashtbl.create 64;
      staging = Sdevice.Bufpool.pages ();
      evicting = false;
      evict_waiters = Sim.Sync.Waitq.create ();
      wb_waitq = Sim.Sync.Waitq.create ();
      wb_daemon = None;
      shoot_cores = [];
      seeded = 0;
      retired_frames = [];
      retired_count = 0;
      s_fault_hits = 0;
      s_misses = 0;
      s_evictions = 0;
      s_wb_ios = 0;
      s_wb_pages = 0;
      s_read_ios = 0;
      s_read_pages = 0;
      s_inflight_waits = 0;
      s_wb_errors = 0;
      s_sigbus = 0;
      wb_fail_streak = 0;
      read_only = false;
      m_hits =
        Metrics.Registry.counter ~help:"DRAM cache fault hits" ~labels
          "mcache_hits";
      m_misses =
        Metrics.Registry.counter ~help:"DRAM cache misses" ~labels
          "mcache_misses";
      m_evictions =
        Metrics.Registry.counter ~help:"frames recycled by eviction" ~labels
          "mcache_evictions";
      m_wb_ios =
        Metrics.Registry.counter ~help:"write-back I/Os issued" ~labels
          "mcache_wb_ios";
      m_wb_pages =
        Metrics.Registry.counter ~help:"dirty pages written back" ~labels
          "mcache_wb_pages";
      m_wb_errors =
        Metrics.Registry.counter ~help:"write-back I/O failures" ~labels
          "mcache_wb_errors";
      m_sigbus =
        Metrics.Registry.counter ~help:"faults surfaced as SIGBUS" ~labels
          "mcache_sigbus";
      m_degraded =
        Metrics.Registry.counter ~help:"transitions into read-only degraded mode"
          ~labels "mcache_degraded_transitions";
    }
  in
  let nodes = topo.Hw.Topology.nodes in
  for i = 0 to cfg.frames - 1 do
    Freelist.add_frame t.fl ~node:(i mod nodes) i
  done;
  t.seeded <- cfg.frames;
  t

let config t = t.cfg
let frames_total t = t.seeded - t.retired_count
let free_frames t = Freelist.free_count t.fl

let register_file t ~file_id ~access ~translate =
  Hashtbl.replace t.files file_id { access; translate }

let backend_of t file_id =
  match Hashtbl.find_opt t.files file_id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Dram_cache: unregistered file %d" file_id)

let set_shoot_cores t cores = t.shoot_cores <- cores

(* Account the local invalidations and the batched shootdown for [vpns];
   mutates every target TLB immediately (pure — no suspension). *)
let invalidate_mappings t ~core ~vpns buf =
  Sim.Costbuf.add buf "tlb"
    (Hw.Ipi.invalidate t.machine t.costs ~mode:t.cfg.ipi_mode ~core
       ~targets:t.shoot_cores ~vpns)

(* An error storm — this many consecutive write-back rounds with
   failures — degrades the cache to read-only: refusing new writes beats
   acknowledging stores that can no longer be made durable. *)
let degrade_streak_limit = 8

let note_wb_outcome t ~failed =
  if failed > 0 then begin
    t.s_wb_errors <- t.s_wb_errors + failed;
    Metrics.Registry.add t.m_wb_errors failed;
    t.wb_fail_streak <- t.wb_fail_streak + 1;
    if (not t.read_only) && t.wb_fail_streak >= degrade_streak_limit then begin
      t.read_only <- true;
      Metrics.Registry.incr t.m_degraded;
      if Trace.on () then Sim.Probe.instant ~cat:"fault" "cache_readonly"
    end
  end
  else t.wb_fail_streak <- 0

(* Write [frames] back in ascending key order, merging runs of
   device-contiguous pages into single I/Os; an eviction of clean victims
   passes no frames and builds nothing.  Suspends.  Returns the frames
   whose run still failed after the access layer's retries, with the final
   error; they are put back on the books still resident and still dirty
   (graceful degradation: a failed write-back is never data loss). *)
let write_back t frames buf =
  match frames with
  | [] -> []
  | _ :: _ ->
      let failed =
        Sdevice.Access.write_merged t.staging ~merge:t.cfg.writeback_merge
          ~cat:"mcache"
          ~key:(fun (fr : frame) -> fr.key)
          ~file:(fun (fr : frame) -> Pagekey.file_of fr.key)
          ~dev:(fun (fr : frame) ->
            let b = backend_of t (Pagekey.file_of fr.key) in
            let dev = b.translate (Pagekey.page_of fr.key) in
            if Option.is_some dev then
              Sim.Costbuf.add buf "writeback" t.costs.Hw.Costs.radix_lookup;
            dev)
          ~access:(fun file -> (backend_of t file).access)
          ~data:(fun (fr : frame) -> fr.data)
          ~written:(fun count ->
            t.s_wb_ios <- t.s_wb_ios + 1;
            t.s_wb_pages <- t.s_wb_pages + count;
            Metrics.Registry.incr t.m_wb_ios;
            Metrics.Registry.add t.m_wb_pages count)
          frames
      in
      note_wb_outcome t ~failed:(List.length failed);
      (* a concurrent store may have re-dirtied a casualty meanwhile *)
      List.iter
        (fun ((fr : frame), _e) ->
          if not fr.dirty then begin
            fr.dirty <- true;
            Sim.Costbuf.add buf "writeback"
              (Dirty_set.add t.dirty ~core:fr.dirty_core ~key:fr.key
                 ~frame:fr.fno)
          end)
        failed;
      failed

(* Take [frames] out of the cache ahead of their write-back: drop their
   index entries and dirty marks, tear down their translations and
   invalidate the TLBs in one batch.  Returns the frames that were dirty.
   Pure — no suspension, so concurrent faults see a consistent cache. *)
let detach t ~core frames buf =
  let c = t.costs in
  List.iter
    (fun (fr : frame) ->
      Hashtbl.remove t.index fr.key;
      Sim.Costbuf.add buf "evict" c.hash_update)
    frames;
  let dirty = List.filter (fun (fr : frame) -> fr.dirty) frames in
  List.iter
    (fun (fr : frame) ->
      Sim.Costbuf.add buf "evict"
        (Dirty_set.remove t.dirty ~core:fr.dirty_core ~key:fr.key);
      fr.dirty <- false)
    dirty;
  let vpns =
    List.filter_map
      (fun (fr : frame) ->
        if fr.vpn >= 0 then begin
          ignore (Hw.Page_table.unmap t.pt ~vpn:fr.vpn);
          Sim.Costbuf.add buf "evict" c.pte_update;
          let v = fr.vpn in
          fr.vpn <- -1;
          Some v
        end
        else None)
      frames
  in
  invalidate_mappings t ~core ~vpns buf;
  dirty

(* Write-back casualties of a teardown stay resident: back into the index
   (and the policy, [touched] as given).  Every other frame is freed.
   Returns how many were freed. *)
let release t ~core ~touched frames failed buf =
  List.iter
    (fun ((fr : frame), _e) ->
      Hashtbl.replace t.index fr.key fr;
      Sim.Costbuf.add buf "evict" t.costs.hash_update;
      Policy.note_insert t.pol fr.fno ~touched)
    failed;
  let failed_frames = List.map fst failed in
  List.fold_left
    (fun n (fr : frame) ->
      if List.memq fr failed_frames then n
      else begin
        fr.key <- -1;
        Sim.Costbuf.add buf "alloc" (Freelist.free t.fl ~core fr.fno);
        n + 1
      end)
    0 frames

(* Synchronously evict a batch of frames (Section 3.2).  The index
   removal, in-flight guards, PTE teardown and shootdown all happen
   before the first suspension point, so concurrent faults observe a
   consistent cache. *)
let evict_batch_now t ~core buf =
  let victims, pcost = Policy.evict_candidates t.pol t.cfg.evict_batch in
  if Int64.compare pcost 0L > 0 then Sim.Costbuf.add buf "evict" pcost;
  let frames = List.map (fun fno -> t.arr.(fno)) victims in
  (* Read-only degradation means write-back is known to be failing:
     evicting a dirty frame would only bounce it through a doomed I/O and
     back.  Skip dirty victims — they stay resident (and recently used,
     so the policy does not immediately re-offer them) and only clean
     frames are recycled. *)
  let frames =
    if not t.read_only then frames
    else begin
      let dirty, clean = List.partition (fun (fr : frame) -> fr.dirty) frames in
      List.iter
        (fun (fr : frame) -> Policy.note_insert t.pol fr.fno ~touched:true)
        dirty;
      clean
    end
  in
  match frames with
  | [] -> false
  | _ :: _ ->
      let ev0 = Sim.Probe.span_start () in
      (* 1. Drop index entries, tear down translations and invalidate TLBs
         (batched); guard dirty victims with in-flight markers so
         concurrent faults wait for the write-back. *)
      let dirty_frames = detach t ~core frames buf in
      let guards =
        List.map
          (fun (fr : frame) ->
            let iv = Sim.Sync.Ivar.create () in
            Hashtbl.replace t.inflight fr.key iv;
            (fr.key, iv))
          dirty_frames
      in
      (* 2. Merged, offset-sorted write-back (suspends). *)
      let failed = write_back t dirty_frames buf in
      (* 3. Failed victims survive the eviction, LRU active so they are not
         the next victims again, and are back in the index before the
         guards release any waiting faulter; the rest is recycled. *)
      let recycled = release t ~core ~touched:true frames failed buf in
      List.iter
        (fun (key, iv) ->
          Hashtbl.remove t.inflight key;
          Sim.Sync.Ivar.fill iv ())
        guards;
      t.s_evictions <- t.s_evictions + recycled;
      Metrics.Registry.add t.m_evictions recycled;
      if Trace.on () then begin
        Sim.Probe.span_since ~cat:"mcache"
          ~value:(Int64.of_int (List.length frames))
          ~t0:ev0 t.evict_label;
        Sim.Probe.counter ~cat:"mcache" "dirty_pages"
          (Int64.of_int (Dirty_set.total t.dirty))
      end;
      recycled > 0

(* Concurrent faulting threads coalesce on one evictor: a stampede of
   per-thread batch evictions would wipe the whole cache under pressure. *)
let rec alloc_frame t ~core buf attempts =
  if attempts > 1000 then failwith "Dram_cache: cannot reclaim frames (thrash)";
  let f, acost = Freelist.alloc t.fl ~core in
  Sim.Costbuf.add buf "alloc" acost;
  match f with
  | Some fno -> t.arr.(fno)
  | None ->
      if t.evicting then Sim.Sync.Waitq.wait t.evict_waiters
      else begin
        t.evicting <- true;
        let progressed =
          match evict_batch_now t ~core buf with
          | ok -> ok
          | exception e ->
              t.evicting <- false;
              ignore (Sim.Sync.Waitq.broadcast t.evict_waiters);
              raise e
        in
        t.evicting <- false;
        ignore (Sim.Sync.Waitq.broadcast t.evict_waiters);
        if not progressed then Sim.Engine.idle_wait 2000L
      end;
      alloc_frame t ~core buf (attempts + 1)

(* Reads [count] device pages from [dev] into [dst].  On an unrecoverable
   read, releases the readahead frames and their guards (waiters re-check
   the index, miss, and retry — getting their own verdict) before the error
   unwinds to the faulter.  A top-level function, so the single-page fault
   path allocates no closure. *)
let read_or_release t ~core buf backend ~dev ~count guards dst =
  try Sdevice.Access.read_pages backend.access ~page:dev ~count ~dst
  with e ->
    List.iter
      (fun (k, (fr : frame), iv) ->
        Hashtbl.remove t.inflight k;
        fr.key <- -1;
        Sim.Costbuf.add buf "alloc" (Freelist.free t.fl ~core fr.fno);
        Sim.Sync.Ivar.fill iv ())
      guards;
    raise e

(* Fetch [key]'s page into [frame], plus configured readahead, issuing the
   largest device-contiguous read possible.  Suspends for the I/O. *)
let read_in t ~core ~key ~readahead (frame : frame) buf =
  let c = t.costs in
  let file = Pagekey.file_of key and page = Pagekey.page_of key in
  let backend = backend_of t file in
  let dev =
    match backend.translate page with
    | Some d -> d
    | None ->
        invalid_arg
          (Printf.sprintf "Dram_cache: fault beyond end of file %d page %d" file
             page)
  in
  Sim.Costbuf.add buf "map" c.radix_lookup;
  let extra = ref [] in
  let n = ref 1 in
  let continue_ = ref (readahead > 0) in
  while !continue_ && !n <= readahead do
    let p = page + !n in
    let k = Pagekey.make ~file ~page:p in
    match backend.translate p with
    | Some d
      when d = dev + !n
           && (not (Hashtbl.mem t.index k))
           && not (Hashtbl.mem t.inflight k) -> (
        let fopt, acost = Freelist.alloc t.fl ~core in
        Sim.Costbuf.add buf "alloc" acost;
        match fopt with
        | Some fno ->
            extra := (k, t.arr.(fno)) :: !extra;
            incr n
        | None -> continue_ := false)
    | _ -> continue_ := false
  done;
  let extra = List.rev !extra in
  let count = 1 + List.length extra in
  let guards =
    List.map
      (fun (k, fr) ->
        let iv = Sim.Sync.Ivar.create () in
        Hashtbl.replace t.inflight k iv;
        (k, fr, iv))
      extra
  in
  if count = 1 then read_or_release t ~core buf backend ~dev ~count guards frame.data
  else
    Sdevice.Bufpool.with_pages t.staging count (fun scratch ->
        read_or_release t ~core buf backend ~dev ~count guards scratch;
        Bytes.blit scratch 0 frame.data 0 psz;
        List.iteri
          (fun i (_, (fr : frame), _) ->
            Bytes.blit scratch ((i + 1) * psz) fr.data 0 psz)
          guards);
  t.s_read_ios <- t.s_read_ios + 1;
  t.s_read_pages <- t.s_read_pages + count;
  frame.key <- key;
  frame.dirty <- false;
  Hashtbl.replace t.index key frame;
  Sim.Costbuf.add buf "index" c.hash_update;
  Policy.note_insert t.pol frame.fno ~touched:true;
  List.iter
    (fun (k, (fr : frame), iv) ->
      fr.key <- k;
      fr.dirty <- false;
      fr.vpn <- -1;
      Hashtbl.replace t.index k fr;
      Sim.Costbuf.add buf "index" c.hash_update;
      Policy.note_insert t.pol fr.fno ~touched:false;
      Hashtbl.remove t.inflight k;
      Sim.Sync.Ivar.fill iv ())
    guards

let fault t ?readahead ~core ~key ~vpn ~write () =
  let c = t.costs in
  if write && t.read_only then
    raise (Fault.Read_only "dram-cache: write-back failing, cache is read-only");
  let readahead = match readahead with Some r -> r | None -> t.cfg.readahead in
  let buf = Sim.Costbuf.create () in
  Sim.Costbuf.add buf "index" c.hash_lookup;
  let rec get_frame () =
    match Hashtbl.find_opt t.index key with
    | Some frame ->
        t.s_fault_hits <- t.s_fault_hits + 1;
        Metrics.Registry.incr t.m_hits;
        if Trace.on () then Sim.Probe.instant ~cat:"mcache" "hit";
        frame
    | None -> (
        match Hashtbl.find_opt t.inflight key with
        | Some iv ->
            t.s_inflight_waits <- t.s_inflight_waits + 1;
            Sim.Sync.Ivar.read iv;
            Sim.Costbuf.add buf "index" c.hash_lookup;
            get_frame ()
        | None -> (
            let iv = Sim.Sync.Ivar.create () in
            Hashtbl.replace t.inflight key iv;
            if Trace.on () then Sim.Probe.instant ~cat:"mcache" "miss";
            let frame = alloc_frame t ~core buf 0 in
            match read_in t ~core ~key ~readahead frame buf with
            | () ->
                Hashtbl.remove t.inflight key;
                Sim.Sync.Ivar.fill iv ();
                t.s_misses <- t.s_misses + 1;
                Metrics.Registry.incr t.m_misses;
                frame
            | exception Fault.Io_error _ ->
                (* the read is dead after retries: free the frame, wake
                   any piggybacked faulters, and deliver a SIGBUS — the
                   same contract a real mmap gives on a media error *)
                Hashtbl.remove t.inflight key;
                frame.key <- -1;
                Sim.Costbuf.add buf "alloc" (Freelist.free t.fl ~core frame.fno);
                Sim.Sync.Ivar.fill iv ();
                t.s_sigbus <- t.s_sigbus + 1;
                Metrics.Registry.incr t.m_sigbus;
                (match Fault.active () with
                | Some p -> Fault.note_sigbus p
                | None -> ());
                if Trace.on () then Sim.Probe.instant ~cat:"fault" "sigbus";
                Sim.Costbuf.charge buf;
                raise
                  (Fault.Sigbus
                     { file = Pagekey.file_of key; page = Pagekey.page_of key })))
  in
  let frame = get_frame () in
  (* Read faults map read-only so the first write faults again and marks
     the page dirty (Section 3.2). *)
  frame.vpn <- vpn;
  Hw.Page_table.map t.pt ~vpn ~pfn:frame.fno ~writable:write;
  Sim.Costbuf.add buf "map" c.pte_update;
  if write && not frame.dirty then begin
    frame.dirty <- true;
    frame.dirty_core <- core;
    Sim.Costbuf.add buf "map" (Dirty_set.add t.dirty ~core ~key ~frame:frame.fno);
    if Trace.on () then
      Sim.Probe.counter ~cat:"mcache" "dirty_pages"
        (Int64.of_int (Dirty_set.total t.dirty));
    match t.wb_daemon with
    | Some (hi, _) when Dirty_set.total t.dirty > hi ->
        ignore (Sim.Sync.Waitq.signal t.wb_waitq)
    | _ -> ()
  end;
  let pcost = Policy.touch t.pol frame.fno in
  if Int64.compare pcost 0L > 0 then Sim.Costbuf.add buf "map" pcost;
  Sim.Costbuf.charge buf

let pfn_data t pfn = t.arr.(pfn).data

let forget_mapping t ~pfn =
  let fr = t.arr.(pfn) in
  fr.vpn <- -1

let is_resident t ~key = Hashtbl.mem t.index key

(* Write back dirty pages (all, or the [limit] lowest-offset ones),
   write-protecting their PTEs so further stores re-mark them dirty.
   Returns the write-back casualties (kept dirty — no data loss). *)
let clean t ~core ?file ?limit () =
  if Dirty_set.total t.dirty = 0 then []
    (* nothing dirty: no drain, no PTE walk, no shootdown, no I/O *)
  else begin
    let c = t.costs in
    let buf = Sim.Costbuf.create () in
    let entries, dcost = Dirty_set.drain_sorted t.dirty ?file ?limit () in
    Sim.Costbuf.add buf "writeback" dcost;
    let frames =
      List.filter_map
        (fun (key, fno) ->
          let fr = t.arr.(fno) in
          if fr.key = key && fr.dirty then Some fr else None)
        entries
    in
    (* [wb_protect = false] is a deliberately broken variant for the
       crash-consistency checker: skipping the write-protect means later
       stores never re-fault, never re-dirty, and the next msync silently
       misses them — faultcheck must catch exactly this. *)
    let vpns =
      if not t.cfg.wb_protect then []
      else
        List.filter_map
          (fun (fr : frame) ->
            if fr.vpn >= 0 then begin
              Hw.Page_table.set_writable t.pt ~vpn:fr.vpn false;
              Sim.Costbuf.add buf "writeback" c.pte_update;
              Some fr.vpn
            end
            else None)
          frames
    in
    invalidate_mappings t ~core ~vpns buf;
    List.iter (fun (fr : frame) -> fr.dirty <- false) frames;
    let failed = write_back t frames buf in
    Sim.Costbuf.charge buf;
    failed
  end

let msync t ~core ?file () =
  match clean t ~core ?file () with
  | [] -> ()
  | ((fr : frame), e) :: _ ->
      (* the page is still dirty and resident; the caller must not treat
         this msync as an acknowledgement *)
      let file = Pagekey.file_of fr.key in
      let dev = Sdevice.Access.name (backend_of t file).access in
      raise
        (Fault.Io_error
           { dev; write = true; page = Pagekey.page_of fr.key; error = e })

(* Background cleaner (the lazy write-back strategy of Section 7.2): when
   the dirty-page count crosses [hi], a daemon fiber drains the per-core
   dirty trees down to [lo] in sorted, merged batches, so foreground
   evictions mostly find clean victims. *)
let spawn_writeback_daemon t ~eng ?(hi = 256) ?(lo = 64) ?(core = 0) () =
  if t.wb_daemon <> None then invalid_arg "Dram_cache: daemon already running";
  t.wb_daemon <- Some (hi, lo);
  ignore
    (Sim.Engine.spawn eng ~name:"aquila-flusher" ~core ~daemon:true (fun () ->
         let continue_ = ref true in
         while !continue_ do
           Sim.Sync.Waitq.wait t.wb_waitq;
           (match t.wb_daemon with
           | None -> continue_ := false
           | Some (_, lo) ->
               let backoff = ref 0L in
               while
                 Dirty_set.total t.dirty > lo
                 && (not t.read_only)
                 && t.wb_daemon <> None
               do
                 match clean t ~core ~limit:64 () with
                 | [] -> backoff := 0L
                 | _failures ->
                     (* device trouble: back off exponentially before
                        hammering it again (degradation to read-only
                        eventually breaks the loop in a storm) *)
                     backoff :=
                       (if Int64.equal !backoff 0L then 100_000L
                        else Int64.min (Int64.mul !backoff 2L) 10_000_000L);
                     Sim.Engine.idle_wait ~label:"wb_backoff" !backoff
               done)
         done))

let stop_writeback_daemon t =
  t.wb_daemon <- None;
  ignore (Sim.Sync.Waitq.signal t.wb_waitq)

let drop_file t ~core ~file_id =
  let buf = Sim.Costbuf.create () in
  let victims = ref [] in
  Hashtbl.iter
    (fun key (fr : frame) ->
      if Pagekey.file_of key = file_id then victims := fr :: !victims)
    t.index;
  let frames = !victims in
  List.iter (fun (fr : frame) -> Policy.note_remove t.pol fr.fno) frames;
  let failed = write_back t (detach t ~core frames buf) buf in
  (* write-back casualties stay resident and dirty rather than being
     dropped with unsaved data (the next msync/daemon round retries) *)
  ignore (release t ~core ~touched:false frames failed buf);
  Sim.Costbuf.charge buf

(* Failure injection: power loss.  Volatile state — every cached frame,
   dirty or not, and all translations — vanishes without write-back.  The
   backing devices keep only what reached them. *)
let crash t =
  Array.iter
    (fun (fr : frame) ->
      if fr.key >= 0 then begin
        if fr.vpn >= 0 then ignore (Hw.Page_table.unmap t.pt ~vpn:fr.vpn);
        Hashtbl.remove t.index fr.key;
        if fr.dirty then
          ignore (Dirty_set.remove t.dirty ~core:fr.dirty_core ~key:fr.key);
        Policy.note_remove t.pol fr.fno;
        fr.key <- -1;
        fr.vpn <- -1;
        fr.dirty <- false;
        let topo = Hw.Machine.topology t.machine in
        Freelist.add_frame t.fl ~node:(fr.fno mod topo.Hw.Topology.nodes) fr.fno
      end)
    t.arr;
  Hashtbl.reset t.inflight;
  (* the restarted instance starts with a clean bill of health *)
  t.read_only <- false;
  t.wb_fail_streak <- 0

let grow t ~frames =
  let topo = Hw.Machine.topology t.machine in
  let nodes = topo.Hw.Topology.nodes in
  let added = ref 0 in
  while
    !added < frames && (t.retired_frames <> [] || t.seeded < t.cfg.max_frames)
  do
    (match t.retired_frames with
    | fno :: rest ->
        t.retired_frames <- rest;
        t.retired_count <- t.retired_count - 1;
        t.arr.(fno).retired <- false;
        Freelist.add_frame t.fl ~node:(fno mod nodes) fno
    | [] ->
        let fno = t.seeded in
        t.seeded <- t.seeded + 1;
        Freelist.add_frame t.fl ~node:(fno mod nodes) fno);
    incr added
  done;
  !added

let shrink t ~frames =
  let retired = ref 0 in
  let attempts = ref 0 in
  while !retired < frames && !attempts < 1000 do
    incr attempts;
    match Freelist.steal_any t.fl with
    | Some fno ->
        (* a frame leaving the cache must leave the policy too: a stale
           reference bit or queue slot would let a retired frame surface
           as a victim after a later [grow] *)
        Policy.retire t.pol fno;
        t.arr.(fno).retired <- true;
        t.retired_frames <- fno :: t.retired_frames;
        t.retired_count <- t.retired_count + 1;
        incr retired
    | None ->
        let buf = Sim.Costbuf.create () in
        if not (evict_batch_now t ~core:0 buf) then attempts := 1000;
        Sim.Costbuf.charge buf
  done;
  !retired

let fault_hits t = t.s_fault_hits
let misses t = t.s_misses
let evictions t = t.s_evictions
let writeback_ios t = t.s_wb_ios
let writeback_pages t = t.s_wb_pages
let read_ios t = t.s_read_ios
let read_pages t = t.s_read_pages
let inflight_waits t = t.s_inflight_waits
let dirty_pages t = Dirty_set.total t.dirty
let wb_errors t = t.s_wb_errors
let sigbus_count t = t.s_sigbus
let degraded t = t.read_only
