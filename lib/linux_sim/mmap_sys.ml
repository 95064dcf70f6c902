let psz = Hw.Defs.page_size

module Pagekey = Mcache.Pagekey

type config = { cache : Page_cache.config }

let default_config ~cache_frames =
  { cache = Page_cache.default_config ~frames:cache_frames }

type file = {
  fid : int;
  fname : string;
  size_pages : int;
  translate : int -> int option;
}

type area = { vstart : int; npages : int; afile : file; file_page0 : int }
type region = { r_area : area }

type t = {
  lcosts : Hw.Costs.t;
  lmachine : Hw.Machine.t;
  pt : Hw.Page_table.t;
  pc : Page_cache.t;
  vmas : (int, area) Hashtbl.t; (* by [vstart]; only its size sets a cost *)
  mmap_sem : Sim.Sync.Mutex.t; (* held for updates; read side is a constant *)
  mutable next_vpn : int;
  mutable next_fid : int;
  mutable thread_cores : int list;
  mutable s_faults : int;
}

let create ?(costs = Hw.Costs.default) ?machine cfg =
  let machine = match machine with Some m -> m | None -> Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  {
    lcosts = costs;
    lmachine = machine;
    pt;
    pc = Page_cache.create ~costs ~machine ~page_table:pt cfg.cache;
    vmas = Hashtbl.create 16;
    mmap_sem = Sim.Sync.Mutex.create ~name:"mmap_sem" ();
    next_vpn = 256;
    next_fid = 1;
    thread_cores = [];
    s_faults = 0;
  }

let costs t = t.lcosts
let page_cache t = t.pc

let enter_thread t =
  let ctx = Sim.Engine.self () in
  if not (List.mem ctx.Sim.Engine.core t.thread_cores) then begin
    t.thread_cores <- ctx.Sim.Engine.core :: t.thread_cores;
    Page_cache.set_shoot_cores t.pc t.thread_cores
  end

let attach_file t ~name ~access ~translate ~size_pages =
  let f = { fid = t.next_fid; fname = name; size_pages; translate } in
  ignore f.fname;
  t.next_fid <- t.next_fid + 1;
  Page_cache.register_file t.pc ~file_id:f.fid ~access ~translate;
  f

let file_id f = f.fid

let delay_sys ?label c = Sim.Engine.delay ~cat:Sim.Engine.Sys ?label c

let mmap t file ?(file_page0 = 0) ~npages () =
  if npages <= 0 || file_page0 < 0 || file_page0 + npages > file.size_pages then
    invalid_arg "Mmap_sys.mmap: range outside file";
  delay_sys ~label:"syscall" t.lcosts.Hw.Costs.syscall;
  Sim.Sync.Mutex.lock t.mmap_sem;
  let vstart = t.next_vpn in
  t.next_vpn <- t.next_vpn + npages + 1;
  let area = { vstart; npages; afile = file; file_page0 } in
  Hashtbl.replace t.vmas vstart area;
  delay_sys ~label:"vma" t.lcosts.Hw.Costs.vma_lookup;
  Sim.Sync.Mutex.unlock t.mmap_sem;
  { r_area = area }

let munmap t region =
  delay_sys ~label:"syscall" t.lcosts.Hw.Costs.syscall;
  Sim.Sync.Mutex.lock t.mmap_sem;
  Hashtbl.remove t.vmas region.r_area.vstart;
  delay_sys ~label:"vma" t.lcosts.Hw.Costs.vma_lookup;
  Sim.Sync.Mutex.unlock t.mmap_sem;
  (* tear down PTEs; pages stay in the page cache *)
  let core = (Sim.Engine.self ()).Sim.Engine.core in
  let vpns = ref [] in
  for p = 0 to region.r_area.npages - 1 do
    let vpn = region.r_area.vstart + p in
    if Hw.Page_table.unmap t.pt ~vpn <> Hw.Page_table.no_frame then begin
      delay_sys ~label:"munmap" t.lcosts.Hw.Costs.pte_update;
      vpns := vpn :: !vpns
    end
  done;
  if !vpns <> [] then
    delay_sys ~label:"tlb"
      (Hw.Ipi.invalidate t.lmachine t.lcosts ~mode:Hw.Ipi.Kernel_ipi ~core
         ~targets:t.thread_cores ~vpns:!vpns)

let msync t region =
  delay_sys ~label:"syscall" t.lcosts.Hw.Costs.syscall;
  let core = (Sim.Engine.self ()).Sim.Engine.core in
  Page_cache.msync_file t.pc ~core ~file_id:region.r_area.afile.fid

let region_npages r = r.r_area.npages

(* VMA lookup under mmap_sem (read side modelled as a constant plus the
   red-black walk of the VMA count; write-side updates take the mutex). *)
let vma_lookup_cost t =
  let d = Hw.Costs.rb_depth (Hashtbl.length t.vmas) in
  Int64.add 120L (Int64.mul t.lcosts.Hw.Costs.vma_lookup (Int64.of_int (max 1 (d / 4))))

(* One page-granular access: the shared hardware path, and on a miss the
   kernel's fault path, which charges the hit path's costs before the
   trap. *)
let rec touch_page ?(attempt = 0) t region ~page ~write buf =
  if page < 0 || page >= region.r_area.npages then
    invalid_arg "Mmap_sys: access outside region";
  if attempt > 100 then failwith "Mmap_sys: access cannot make progress (thrash)";
  let vpn = region.r_area.vstart + page in
  let core = (Sim.Engine.self ()).Sim.Engine.core in
  match Hw.Mmu.access t.lmachine t.lcosts t.pt ~core ~vpn ~write buf with
  | pfn when pfn <> Hw.Mmu.no_frame -> pfn
  | _ ->
      t.s_faults <- t.s_faults + 1;
      Sim.Costbuf.charge buf;
      (* Page-fault begin/end span; value encodes the cause (1 = write). *)
      let ft0 = Sim.Probe.span_start () in
      (* ring 3 → ring 0 trap *)
      delay_sys ~label:"trap"
        (Hw.Domain_x.fault_transition_cost t.lcosts Hw.Domain_x.Ring3);
      delay_sys ~label:"fault_entry" t.lcosts.Hw.Costs.kernel_fault_entry;
      delay_sys ~label:"vma" (vma_lookup_cost t);
      let fpage = region.r_area.file_page0 + page in
      let key = Pagekey.make ~file:region.r_area.afile.fid ~page:fpage in
      Page_cache.fault t.pc ~core ~key ~vpn ~write;
      Sim.Probe.span_since ~cat:"linux"
        ~value:(if write then 1L else 0L)
        ~t0:ft0 "fault";
      let pfn = Hw.Page_table.pfn t.pt ~vpn in
      if pfn = Hw.Page_table.no_frame then
        touch_page ~attempt:(attempt + 1) t region ~page ~write buf
      else begin
        if write then Hw.Page_table.set_dirty t.pt ~vpn;
        pfn
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
    ~frame:(fun t pfn -> Page_cache.pfn_data t.pc pfn)
    t region ~write ~off ~len b

let read t region ~off ~len ~dst =
  if off < 0 || len < 0 || off + len > region.r_area.npages * psz then
    invalid_arg "Mmap_sys.read: range outside region";
  if Bytes.length dst < len then invalid_arg "Mmap_sys.read: dst too small";
  copy t region ~write:false ~off ~len dst

let write ?len t region ~off ~src =
  let len = Option.value len ~default:(Bytes.length src) in
  if len > Bytes.length src then invalid_arg "Mmap_sys.write: src too small";
  if off < 0 || off + len > region.r_area.npages * psz then
    invalid_arg "Mmap_sys.write: range outside region";
  copy t region ~write:true ~off ~len src

let faults t = t.s_faults
