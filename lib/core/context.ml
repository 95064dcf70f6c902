let psz = Hw.Defs.page_size

type config = { cache : Mcache.Dram_cache.config; domain : Hw.Domain_x.t }

let default_config ~cache_frames =
  {
    cache = Mcache.Dram_cache.default_config ~frames:cache_frames;
    domain = Hw.Domain_x.Nonroot_ring0;
  }

(* GPA->HPA mappings are 2 MiB, scaled from the paper's 1 GiB (DESIGN.md §2). *)
let ept_granularity = 2097152L

type file = {
  fid : int;
  fname : string;
  size_pages : int;
  translate : int -> int option;
}

type region = {
  vstart : int;
  npages : int;
  rfile : file;
  file_page0 : int;
  area : Vma.area;
}

type t = {
  ccosts : Hw.Costs.t;
  cmachine : Hw.Machine.t;
  pt : Hw.Page_table.t;
  ept : Hw.Ept.t;
  ccache : Mcache.Dram_cache.t;
  vma : Vma.t;
  dom : Hw.Domain_x.t;
  mutable next_vpn : int;
  mutable next_fid : int;
  mutable thread_cores : int list;
  mutable s_faults : int;
  m_accesses : Metrics.Registry.cell;
  m_faults : Metrics.Registry.cell;
}

let create ?(costs = Hw.Costs.default) ?machine cfg =
  let machine = match machine with Some m -> m | None -> Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  {
    ccosts = costs;
    cmachine = machine;
    pt;
    ept = Hw.Ept.create ~granularity_bytes:ept_granularity ();
    ccache = Mcache.Dram_cache.create ~costs ~machine ~page_table:pt cfg.cache;
    vma = Vma.create costs;
    dom = cfg.domain;
    next_vpn = 256; (* leave a null guard region *)
    next_fid = 1;
    thread_cores = [];
    s_faults = 0;
    m_accesses =
      Metrics.Registry.counter ~help:"page-granular memory accesses"
        "aquila_mem_accesses";
    m_faults =
      Metrics.Registry.counter ~help:"page faults taken by the Aquila runtime"
        "aquila_page_faults";
  }

let costs t = t.ccosts
let cache t = t.ccache

let enter_thread t =
  let ctx = Sim.Engine.self () in
  if not (List.mem ctx.Sim.Engine.core t.thread_cores) then begin
    t.thread_cores <- ctx.Sim.Engine.core :: t.thread_cores;
    Mcache.Dram_cache.set_shoot_cores t.ccache t.thread_cores
  end;
  (* vmlaunch into non-root ring 0 (Aquila mode only) *)
  match t.dom with
  | Hw.Domain_x.Nonroot_ring0 ->
      if Trace.on () then Sim.Probe.instant ~cat:"hw" "vmcall";
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"enter"
        t.ccosts.Hw.Costs.vmcall_roundtrip
  | Hw.Domain_x.Ring3 -> ()

let attach_file t ~name ~access ~translate ~size_pages =
  let f = { fid = t.next_fid; fname = name; size_pages; translate } in
  ignore f.fname;
  t.next_fid <- t.next_fid + 1;
  Mcache.Dram_cache.register_file t.ccache ~file_id:f.fid ~access ~translate;
  f

let file_id f = f.fid

let mmap t file ?(file_page0 = 0) ~npages () =
  if npages <= 0 || file_page0 < 0 || file_page0 + npages > file.size_pages then
    invalid_arg "Context.mmap: range outside file";
  Syscalls.intercepted "mmap";
  let vstart = t.next_vpn in
  t.next_vpn <- t.next_vpn + npages + 1 (* guard page *);
  let area =
    {
      Vma.vstart;
      npages;
      file_id = file.fid;
      file_page0;
      advice = Vma.Normal;
    }
  in
  let cost = Vma.insert t.vma area in
  Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"vma" cost;
  { vstart; npages; rfile = file; file_page0; area }

let current_core () = (Sim.Engine.self ()).Sim.Engine.core

(* Local invalidation plus one batched shootdown of the application's
   threads, in the cache's IPI mode. *)
let invalidate t ~core ~vpns buf =
  Sim.Costbuf.add buf "tlb"
    (Hw.Ipi.invalidate t.cmachine t.ccosts
       ~mode:(Mcache.Dram_cache.config t.ccache).Mcache.Dram_cache.ipi_mode
       ~core ~targets:t.thread_cores ~vpns)

let munmap t region =
  Syscalls.intercepted "munmap";
  let _, cost = Vma.remove t.vma ~vstart:region.vstart in
  let buf = Sim.Costbuf.create () in
  Sim.Costbuf.add buf "vma" cost;
  let core = current_core () in
  let vpns = ref [] in
  for p = 0 to region.npages - 1 do
    let vpn = region.vstart + p in
    let pfn = Hw.Page_table.unmap t.pt ~vpn in
    if pfn <> Hw.Page_table.no_frame then begin
      Mcache.Dram_cache.forget_mapping t.ccache ~pfn;
      Sim.Costbuf.add buf "munmap" t.ccosts.Hw.Costs.pte_update;
      vpns := vpn :: !vpns
    end
  done;
  invalidate t ~core ~vpns:!vpns buf;
  Sim.Costbuf.charge buf

let madvise region advice =
  Syscalls.intercepted "madvise";
  region.area.Vma.advice <- advice

let mprotect t region ~writable =
  Syscalls.intercepted "mprotect";
  let buf = Sim.Costbuf.create () in
  let core = current_core () in
  let vpns = ref [] in
  for p = 0 to region.npages - 1 do
    let vpn = region.vstart + p in
    (* downgrades take effect immediately (and need invalidation);
       upgrades are applied lazily through the fault path so dirty
       tracking stays intact *)
    if (not writable) && Hw.Page_table.writable t.pt ~vpn then begin
      Hw.Page_table.set_writable t.pt ~vpn false;
      Sim.Costbuf.add buf "mprotect" t.ccosts.Hw.Costs.pte_update;
      vpns := vpn :: !vpns
    end
  done;
  invalidate t ~core ~vpns:!vpns buf;
  Sim.Costbuf.charge buf

let msync t region =
  Syscalls.intercepted "msync";
  Mcache.Dram_cache.msync t.ccache ~core:(current_core ())
    ~file:region.rfile.fid ()

let mremap t region ~npages =
  Syscalls.intercepted "mremap";
  munmap t region;
  mmap t region.rfile ~file_page0:region.file_page0 ~npages ()

let region_npages r = r.npages

(* Readahead window under MADV_SEQUENTIAL/MADV_WILLNEED; every other
   advice, MADV_NORMAL included, reads only the faulting page. *)
let readahead_sequential = 32

let readahead_for (area : Vma.area) =
  match area.Vma.advice with
  | Vma.Sequential | Vma.Willneed -> readahead_sequential
  | Vma.Random | Vma.Dontneed | Vma.Normal -> 0

(* One page-granular access.  Returns the backing frame number.  A hit
   is the shared hardware path; a miss takes Aquila's fault path, whose
   costs are charged inline while the hit path's stay in [buf].  Retries
   when the freshly installed translation is stolen by a concurrent
   eviction before the access completes, as a re-executed instruction
   would. *)
let rec touch_page ?(attempt = 0) t region ~page ~write buf =
  if page < 0 || page >= region.npages then
    invalid_arg "Context: access outside region";
  if attempt > 100 then failwith "Aquila: access cannot make progress (thrash)";
  let vpn = region.vstart + page in
  let core = current_core () in
  Metrics.Registry.incr t.m_accesses;
  match Hw.Mmu.access t.cmachine t.ccosts t.pt ~core ~vpn ~write buf with
  | pfn when pfn <> Hw.Mmu.no_frame -> pfn
  | _ ->
      t.s_faults <- t.s_faults + 1;
      Metrics.Registry.incr t.m_faults;
      (* Page-fault begin/end span; value encodes the cause (1 = write). *)
      let ft0 = Sim.Probe.span_start () in
      (* Exception in non-root ring 0: no protection-domain switch. *)
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"trap"
        (Hw.Domain_x.fault_transition_cost t.ccosts t.dom);
      (* handler dispatch: register save, routing, exception-frame copy *)
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"fault_entry" 250L;
      let area_opt, vcost = Vma.lookup t.vma ~vpn in
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"vma" vcost;
      (match area_opt with
      | None -> failwith "Aquila: fault outside any mapping (SIGSEGV)"
      | Some area -> (
          let fpage = area.Vma.file_page0 + (vpn - area.Vma.vstart) in
          let key = Mcache.Pagekey.make ~file:area.Vma.file_id ~page:fpage in
          try
            Mcache.Dram_cache.fault t.ccache ~readahead:(readahead_for area)
              ~core ~key ~vpn ~write ()
          with Fault.Sigbus _ as e ->
            (* media error under the mapping: deliver the signal to the
               application, exactly like a kernel mmap would *)
            Syscalls.record_sigbus ();
            Sim.Probe.span_since ~cat:"aquila"
              ~value:(if write then 1L else 0L)
              ~t0:ft0 "fault_sigbus";
            raise e));
      let pfn = Hw.Page_table.pfn t.pt ~vpn in
      if pfn <> Hw.Page_table.no_frame then begin
        (* EPT only exists under virtualization (Aquila mode). *)
        (match t.dom with
        | Hw.Domain_x.Nonroot_ring0 ->
            let eptc =
              Hw.Ept.touch t.ept t.ccosts ~gpa:(Int64.of_int (pfn * psz))
            in
            if Int64.compare eptc 0L > 0 then
              Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"ept" eptc
        | Hw.Domain_x.Ring3 -> ());
        Sim.Probe.span_since ~cat:"aquila"
          ~value:(if write then 1L else 0L)
          ~t0:ft0 "fault";
        if write then Hw.Page_table.set_dirty t.pt ~vpn;
        (* the frame found before the EPT delay, not checked again *)
        pfn
      end
      else begin
        Sim.Probe.span_since ~cat:"aquila"
          ~value:(if write then 1L else 0L)
          ~t0:ft0 "fault_stolen";
        (* evicted again before we could use it: re-execute *)
        touch_page ~attempt:(attempt + 1) t region ~page ~write buf
      end

let touch t region ~page ~write =
  let buf = Sim.Costbuf.create () in
  ignore (touch_page t region ~page ~write buf);
  Sim.Costbuf.charge buf

let touch_buf t region ~page ~write ~buf =
  ignore (touch_page t region ~page ~write buf)

(* The shared byte-range copy over this stack's page access.  Both
   functions are closed, so a copy allocates no closure. *)
let copy t region ~write ~off ~len b =
  Hw.Mmu.copy
    ~touch:(fun t r ~page ~write buf -> touch_page t r ~page ~write buf)
    ~frame:(fun t pfn -> Mcache.Dram_cache.pfn_data t.ccache pfn)
    t region ~write ~off ~len b

let read t region ~off ~len ~dst =
  if off < 0 || len < 0 || off + len > region.npages * psz then
    invalid_arg "Context.read: range outside region";
  if Bytes.length dst < len then invalid_arg "Context.read: dst too small";
  copy t region ~write:false ~off ~len dst

let write ?len t region ~off ~src =
  let len = Option.value len ~default:(Bytes.length src) in
  if len > Bytes.length src then invalid_arg "Context.write: src too small";
  if off < 0 || off + len > region.npages * psz then
    invalid_arg "Context.write: range outside region";
  copy t region ~write:true ~off ~len src

let resize_cache t ~frames =
  Syscalls.forwarded t.ccosts t.dom "cache_resize";
  let current = Mcache.Dram_cache.frames_total t.ccache in
  if frames > current then begin
    let added = Mcache.Dram_cache.grow t.ccache ~frames:(frames - current) in
    ignore added
  end
  else if frames < current then begin
    let removed = Mcache.Dram_cache.shrink t.ccache ~frames:(current - frames) in
    (* hypervisor reclaims the GPA range: drop its EPT mappings *)
    let bytes = Int64.of_int (removed * psz) in
    ignore
      (Hw.Ept.unmap_range t.ept
         ~gpa:(Int64.of_int (Mcache.Dram_cache.frames_total t.ccache * psz))
         ~len:bytes)
  end

let faults t = t.s_faults
let ept_faults t = Hw.Ept.faults t.ept
