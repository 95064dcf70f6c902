let psz = Hw.Defs.page_size

module Pagekey = Mcache.Pagekey

type config = { frames : int; readahead : int }

let default_config ~frames = { frames; readahead = 32 }

type frame = {
  fno : int;
  data : Bytes.t;
  mutable key : int; (* -1 when free *)
  mutable vpn : int;
  mutable dirty : bool;
}

(* Per-file index state: one radix tree whose updates and dirty tags are
   serialized by the file's tree_lock, as in 4.14. *)
type file_meta = {
  tree : frame Dstruct.Radix_tree.t;
  tree_lock : Sim.Sync.Mutex.t;
  dirty_tags : (int, unit) Hashtbl.t; (* file pages tagged dirty *)
  access : Sdevice.Access.t;
  translate : int -> int option;
}

type t = {
  costs : Hw.Costs.t;
  machine : Hw.Machine.t;
  pt : Hw.Page_table.t;
  cfg : config;
  arr : frame array;
  free : int Queue.t;
  zone_lock : Sim.Sync.Mutex.t;
  lru : Dstruct.Clock_lru.t;
  lru_lock : Sim.Sync.Mutex.t;
  files : (int, file_meta) Hashtbl.t;
  inflight : (int, unit Sim.Sync.Ivar.t) Hashtbl.t;
  staging : Sdevice.Bufpool.pages; (* readahead and write-back runs *)
  flusher_waitq : Sim.Sync.Waitq.t;
  mutable flusher : (int * int) option; (* (hi, lo) watermarks *)
  mutable shoot_cores : int list;
  mutable s_evictions : int;
  m_hits : Metrics.Registry.cell;
  m_misses : Metrics.Registry.cell;
  m_evictions : Metrics.Registry.cell;
  m_wb_ios : Metrics.Registry.cell;
  m_sigbus : Metrics.Registry.cell;
}

let create ~costs ~machine ~page_table cfg =
  if cfg.frames <= 0 then invalid_arg "Page_cache.create";
  let t =
    {
      costs;
      machine;
      pt = page_table;
      cfg;
      arr =
        Array.init cfg.frames (fun i ->
            { fno = i; data = Bytes.create psz; key = -1; vpn = -1; dirty = false });
      free = Queue.create ();
      zone_lock = Sim.Sync.Mutex.create ~name:"zone_lock" ();
      lru = Dstruct.Clock_lru.create ~nframes:cfg.frames;
      lru_lock = Sim.Sync.Mutex.create ~name:"lru_lock" ();
      files = Hashtbl.create 16;
      inflight = Hashtbl.create 64;
      staging = Sdevice.Bufpool.pages ();
      flusher_waitq = Sim.Sync.Waitq.create ();
      flusher = None;
      shoot_cores = [];
      s_evictions = 0;
      m_hits =
        Metrics.Registry.counter ~help:"Linux page-cache hits"
          "linux_cache_hits";
      m_misses =
        Metrics.Registry.counter ~help:"Linux page-cache misses"
          "linux_cache_misses";
      m_evictions =
        Metrics.Registry.counter ~help:"Linux page-cache frames reclaimed"
          "linux_cache_evictions";
      m_wb_ios =
        Metrics.Registry.counter ~help:"Linux write-back I/Os"
          "linux_cache_wb_ios";
      m_sigbus =
        Metrics.Registry.counter ~help:"Linux faults surfaced as SIGBUS"
          "linux_cache_sigbus";
    }
  in
  for i = 0 to cfg.frames - 1 do
    Queue.add i t.free
  done;
  t

let register_file t ~file_id ~access ~translate =
  Hashtbl.replace t.files file_id
    {
      tree = Dstruct.Radix_tree.create ();
      tree_lock =
        Sim.Sync.Mutex.create ~name:(Printf.sprintf "tree_lock[%d]" file_id) ();
      dirty_tags = Hashtbl.create 64;
      access;
      translate;
    }

let meta_of t file_id =
  match Hashtbl.find_opt t.files file_id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Page_cache: unregistered file %d" file_id)

let set_shoot_cores t cores = t.shoot_cores <- cores

let delay_sys ?label c = Sim.Engine.delay ~cat:Sim.Engine.Sys ?label c

(* Lock-free (RCU) lookup, as in Linux find_get_page. *)
let lookup t key =
  let m = meta_of t (Pagekey.file_of key) in
  delay_sys ~label:"index" t.costs.Hw.Costs.radix_lookup;
  Dstruct.Radix_tree.find m.tree (Pagekey.page_of key)

(* A 0-cycle delay is still an engine event: no pages, no charge. *)
let shootdown_vpns t ~core vpns =
  if vpns <> [] then
    delay_sys ~label:"tlb"
      (Hw.Ipi.invalidate t.machine t.costs ~mode:Hw.Ipi.Kernel_ipi ~core
         ~targets:t.shoot_cores ~vpns)

(* At most this many pages go into one write-back I/O. *)
let writeback_merge = 64

(* Write the given (key, frame) pairs back, merging device-contiguous
   runs; a reclaim of clean victims passes no pairs and builds nothing.
   Entries must already be guarded (tree entries removed or pages
   locked).  Suspends.  Returns the pairs whose write-back still failed
   after the access layer's retries; what to do with the casualties
   (re-tag dirty, or drop with data loss) is the caller's call. *)
let write_back t pairs =
  match pairs with
  | [] -> []
  | _ :: _ ->
      let failed =
        Sdevice.Access.write_merged t.staging ~merge:writeback_merge
          ~cat:"linux" ~key:fst
          ~file:(fun (key, _) -> Pagekey.file_of key)
          ~dev:(fun (key, _) ->
            (meta_of t (Pagekey.file_of key)).translate (Pagekey.page_of key))
          ~access:(fun file -> (meta_of t file).access)
          ~data:(fun (_, (fr : frame)) -> fr.data)
          ~written:(fun _ -> Metrics.Registry.incr t.m_wb_ios)
          pairs
      in
      failed

(* Write-protect [pairs] so later stores re-tag them, shoot the writable
   translations down, write the pages back and re-tag the casualties dirty
   for a later msync/flusher round (the frames are still in the tree).
   Returns how many failed. *)
let clean_pairs t ~core pairs =
  let vpns =
    List.filter_map
      (fun (_, (fr : frame)) ->
        if fr.vpn >= 0 then begin
          Hw.Page_table.set_writable t.pt ~vpn:fr.vpn false;
          delay_sys ~label:"map" t.costs.Hw.Costs.pte_update;
          Some fr.vpn
        end
        else None)
      pairs
  in
  shootdown_vpns t ~core vpns;
  let failed = write_back t pairs in
  List.iter
    (fun ((key, (fr : frame)), _e) ->
      let m = meta_of t (Pagekey.file_of key) in
      Sim.Sync.Mutex.lock m.tree_lock;
      if not fr.dirty then begin
        fr.dirty <- true;
        Hashtbl.replace m.dirty_tags (Pagekey.page_of key) ()
      end;
      Sim.Sync.Mutex.unlock m.tree_lock)
    failed;
  List.length failed

(* Direct-reclaim scan batch (Linux's SWAP_CLUSTER_MAX). *)
let reclaim_batch = 32

(* Direct reclaim by the faulting thread: scan the global LRU under
   [lru_lock], then tear down each victim under its file's [tree_lock]. *)
let reclaim t ~core =
  let c = t.costs in
  let rc0 = Sim.Probe.span_start () in
  Sim.Sync.Mutex.lock t.lru_lock;
  let victims = Dstruct.Clock_lru.evict_candidates t.lru reclaim_batch in
  delay_sys ~label:"lru"
    (Int64.mul c.lru_update (Int64.of_int (max 1 (List.length victims))));
  Sim.Sync.Mutex.unlock t.lru_lock;
  let torn = ref [] in
  List.iter
    (fun fno ->
      let fr = t.arr.(fno) in
      if fr.key < 0 then ()
      else if Dstruct.Clock_lru.is_referenced t.lru fno then
        (* re-touched since selection: keep it *)
        Dstruct.Clock_lru.set_active t.lru fno true
      else begin
        let key = fr.key in
        let m = meta_of t (Pagekey.file_of key) in
        let page = Pagekey.page_of key in
        Sim.Sync.Mutex.lock m.tree_lock;
        (* re-check under the lock *)
        if fr.key = key && not (Dstruct.Clock_lru.is_referenced t.lru fno) then begin
          ignore (Dstruct.Radix_tree.remove m.tree page);
          delay_sys ~label:"index" c.radix_update;
          (* object-based reverse-mapping walk to find the PTEs — the CPU
             cost FastMap [50] replaces with full reverse mappings *)
          delay_sys ~label:"evict" 900L;
          let was_dirty = fr.dirty in
          if was_dirty then begin
            Hashtbl.remove m.dirty_tags page;
            fr.dirty <- false
          end;
          let iv =
            if was_dirty then begin
              let iv = Sim.Sync.Ivar.create () in
              Hashtbl.replace t.inflight key iv;
              Some iv
            end
            else None
          in
          Sim.Sync.Mutex.unlock m.tree_lock;
          torn := (key, fr, iv) :: !torn
        end
        else begin
          Sim.Sync.Mutex.unlock m.tree_lock;
          Dstruct.Clock_lru.set_active t.lru fno true
        end
      end)
    victims;
  let torn = !torn in
  (* batched unmap + one shootdown *)
  let vpns =
    List.filter_map
      (fun (_, (fr : frame), _) ->
        if fr.vpn >= 0 then begin
          ignore (Hw.Page_table.unmap t.pt ~vpn:fr.vpn);
          delay_sys ~label:"evict" c.pte_update;
          let v = fr.vpn in
          fr.vpn <- -1;
          Some v
        end
        else None)
      torn
  in
  shootdown_vpns t ~core vpns;
  let dirty_pairs =
    List.filter_map
      (fun (key, fr, iv) -> match iv with Some _ -> Some (key, fr) | None -> None)
      torn
  in
  (* the victims are already torn out of the tree and unmapped; a failed
     write-back here loses the data, like the kernel dropping a page after
     AS_EIO — the error is counted, the frame is recycled regardless *)
  ignore (write_back t dirty_pairs);
  List.iter
    (fun (key, _, iv) ->
      match iv with
      | Some iv ->
          Hashtbl.remove t.inflight key;
          Sim.Sync.Ivar.fill iv ()
      | None -> ())
    torn;
  Sim.Sync.Mutex.lock t.zone_lock;
  List.iter
    (fun (_, (fr : frame), _) ->
      fr.key <- -1;
      Queue.add fr.fno t.free)
    torn;
  Sim.Sync.Mutex.unlock t.zone_lock;
  t.s_evictions <- t.s_evictions + List.length torn;
  Metrics.Registry.add t.m_evictions (List.length torn);
  if Trace.on () then
    Sim.Probe.span_since ~cat:"linux"
      ~value:(Int64.of_int (List.length torn))
      ~t0:rc0 "reclaim";
  torn <> []

let rec alloc_frame t ~core attempts =
  if attempts > 1000 then failwith "Page_cache: reclaim cannot make progress";
  Sim.Sync.Mutex.lock t.zone_lock;
  let r = Queue.take_opt t.free in
  Sim.Sync.Mutex.unlock t.zone_lock;
  match r with
  | Some fno -> t.arr.(fno)
  | None ->
      if not (reclaim t ~core) then Sim.Engine.idle_wait 2000L;
      alloc_frame t ~core (attempts + 1)

(* Reads the window's [count] device pages from [dev] into [dst].  On an
   unrecoverable media error, hands the window's frames back and wakes any
   fiber piggybacked on a readahead page (it will retry and get its own
   verdict); [key]'s own guard is the caller's to release.  A top-level
   function, so the single-page fault path allocates no closure. *)
let read_window t m ~key ~dev ~count window dst =
  match Sdevice.Access.read_pages m.access ~page:dev ~count ~dst with
  | () -> ()
  | exception (Fault.Io_error _ as e) ->
      Sim.Sync.Mutex.lock t.zone_lock;
      List.iter (fun (_, _, (fr : frame)) -> Queue.add fr.fno t.free) window;
      Sim.Sync.Mutex.unlock t.zone_lock;
      List.iter
        (fun (k, _, _) ->
          if k <> key then
            match Hashtbl.find_opt t.inflight k with
            | Some iv ->
                Hashtbl.remove t.inflight k;
                Sim.Sync.Ivar.fill iv ()
            | None -> ())
        window;
      raise e

(* Fill [key] (and a readahead window) into the cache.  Assumes the caller
   placed an in-flight guard for [key].  Returns the frame. *)
let fill t ~core ~key =
  let c = t.costs in
  let file = Pagekey.file_of key and page = Pagekey.page_of key in
  let m = meta_of t file in
  let dev =
    match m.translate page with
    | Some d -> d
    | None -> invalid_arg "Page_cache: fault beyond end of file"
  in
  (* Collect the window: the faulting page plus readahead. *)
  let window = ref [ (key, dev, alloc_frame t ~core 0) ] in
  let n = ref 1 in
  let continue_ = ref (t.cfg.readahead > 1) in
  while !continue_ && !n < t.cfg.readahead do
    let p = page + !n in
    let k = Pagekey.make ~file ~page:p in
    match m.translate p with
    | Some d
      when d = dev + !n
           && (not (Dstruct.Radix_tree.mem m.tree p))
           && not (Hashtbl.mem t.inflight k) ->
        let fr = alloc_frame t ~core 0 in
        let iv = Sim.Sync.Ivar.create () in
        Hashtbl.replace t.inflight k iv;
        window := (k, d, fr) :: !window;
        ignore iv;
        incr n
    | _ -> continue_ := false
  done;
  let window = List.rev !window in
  let count = List.length window in
  (* The window's frames are nobody else's until inserted below, so the
     staging buffer is unpacked into them at once and given back before
     the inserts suspend. *)
  (match window with
  | [ (_, _, fr) ] -> read_window t m ~key ~dev ~count window fr.data
  | _ ->
      Sdevice.Bufpool.with_pages t.staging count (fun scratch ->
          read_window t m ~key ~dev ~count window scratch;
          List.iteri
            (fun i (_, _, (fr : frame)) -> Bytes.blit scratch (i * psz) fr.data 0 psz)
            window));
  (* Insert each page under the tree_lock (add_to_page_cache). *)
  List.iter
    (fun (k, _, (fr : frame)) ->
      fr.key <- k;
      fr.dirty <- false;
      fr.vpn <- -1;
      Sim.Sync.Mutex.lock m.tree_lock;
      ignore (Dstruct.Radix_tree.insert m.tree (Pagekey.page_of k) fr);
      (* radix insert plus memcg charge + node accounting, all under the
         lock, as in 4.14's add_to_page_cache_lru *)
      delay_sys ~label:"index" (Int64.add c.radix_update 600L);
      Sim.Sync.Mutex.unlock m.tree_lock;
      Sim.Sync.Mutex.lock t.lru_lock;
      Dstruct.Clock_lru.set_active t.lru fr.fno true;
      Dstruct.Clock_lru.touch t.lru fr.fno;
      delay_sys ~label:"lru" c.lru_update;
      Sim.Sync.Mutex.unlock t.lru_lock;
      if k <> key then begin
        (match Hashtbl.find_opt t.inflight k with
        | Some iv ->
            Hashtbl.remove t.inflight k;
            Sim.Sync.Ivar.fill iv ()
        | None -> ())
      end)
    window;
  match window with (_, _, fr) :: _ -> fr | [] -> assert false

let total_dirty t =
  Hashtbl.fold (fun _ m acc -> acc + Hashtbl.length m.dirty_tags) t.files 0

let set_dirty t key (fr : frame) =
  let m = meta_of t (Pagekey.file_of key) in
  if not fr.dirty then begin
    Sim.Sync.Mutex.lock m.tree_lock;
    fr.dirty <- true;
    Hashtbl.replace m.dirty_tags (Pagekey.page_of key) ();
    delay_sys ~label:"dirty" t.costs.Hw.Costs.radix_update;
    Sim.Sync.Mutex.unlock m.tree_lock;
    if Trace.on () then
      Sim.Probe.counter ~cat:"linux" "dirty_pages"
        (Int64.of_int (total_dirty t));
    match t.flusher with
    | Some (hi, _) when total_dirty t > hi ->
        ignore (Sim.Sync.Waitq.signal t.flusher_waitq)
    | _ -> ()
  end

let rec ensure_resident t ~core ~key =
  match lookup t key with
  | Some fr ->
      Metrics.Registry.incr t.m_hits;
      if Trace.on () then Sim.Probe.instant ~cat:"linux" "hit";
      Dstruct.Clock_lru.touch t.lru fr.fno;
      delay_sys ~label:"lru" t.costs.Hw.Costs.lru_update;
      fr
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some iv ->
          Sim.Sync.Ivar.read iv;
          ensure_resident t ~core ~key
      | None ->
          let iv = Sim.Sync.Ivar.create () in
          Hashtbl.replace t.inflight key iv;
          if Trace.on () then Sim.Probe.instant ~cat:"linux" "miss";
          let f0 = Sim.Probe.span_start () in
          let fr =
            try fill t ~core ~key
            with Fault.Io_error _ ->
              Hashtbl.remove t.inflight key;
              Sim.Sync.Ivar.fill iv ();
              Metrics.Registry.incr t.m_sigbus;
              (match Fault.active () with
              | Some p -> Fault.note_sigbus p
              | None -> ());
              if Trace.on () then Sim.Probe.instant ~cat:"fault" "sigbus";
              raise
                (Fault.Sigbus
                   { file = Pagekey.file_of key; page = Pagekey.page_of key })
          in
          Sim.Probe.span_since ~cat:"linux" ~t0:f0 "fill";
          Hashtbl.remove t.inflight key;
          Sim.Sync.Ivar.fill iv ();
          Metrics.Registry.incr t.m_misses;
          fr)

let fault t ~core ~key ~vpn ~write =
  let c = t.costs in
  let fr = ensure_resident t ~core ~key in
  fr.vpn <- vpn;
  Hw.Page_table.map t.pt ~vpn ~pfn:fr.fno ~writable:write;
  delay_sys ~label:"map" c.pte_update;
  if write then set_dirty t key fr

let buffered_read t ~core ~key =
  let c = t.costs in
  let fr = ensure_resident t ~core ~key in
  (* VFS + copy_to_user for one page *)
  delay_sys ~label:"copy" c.kernel_buffered_read;
  fr.fno

let set_dirty_key t ~key =
  let m = meta_of t (Pagekey.file_of key) in
  match Dstruct.Radix_tree.find m.tree (Pagekey.page_of key) with
  | Some fr -> set_dirty t key fr
  | None -> ()

let pfn_data t pfn = t.arr.(pfn).data

let is_resident t ~key =
  let m = meta_of t (Pagekey.file_of key) in
  Dstruct.Radix_tree.mem m.tree (Pagekey.page_of key)

let msync_file t ~core ~file_id =
  let c = t.costs in
  let m = meta_of t file_id in
  Sim.Sync.Mutex.lock m.tree_lock;
  let pages = Hashtbl.fold (fun p () acc -> p :: acc) m.dirty_tags [] in
  let pairs =
    List.filter_map
      (fun p ->
        match Dstruct.Radix_tree.find m.tree p with
        | Some fr when fr.dirty ->
            fr.dirty <- false;
            Hashtbl.remove m.dirty_tags p;
            delay_sys ~label:"dirty" c.radix_update;
            Some (Pagekey.make ~file:file_id ~page:p, fr)
        | _ -> None)
      (List.sort compare pages)
  in
  Sim.Sync.Mutex.unlock m.tree_lock;
  ignore (clean_pairs t ~core pairs)

let drop_file t ~core ~file_id =
  let c = t.costs in
  msync_file t ~core ~file_id;
  let m = meta_of t file_id in
  Sim.Sync.Mutex.lock m.tree_lock;
  let entries = Dstruct.Radix_tree.fold (fun p fr acc -> (p, fr) :: acc) m.tree [] in
  List.iter
    (fun (p, _) ->
      ignore (Dstruct.Radix_tree.remove m.tree p);
      delay_sys ~label:"index" c.radix_update)
    entries;
  Sim.Sync.Mutex.unlock m.tree_lock;
  let vpns =
    List.filter_map
      (fun (_, (fr : frame)) ->
        if fr.vpn >= 0 then begin
          ignore (Hw.Page_table.unmap t.pt ~vpn:fr.vpn);
          let v = fr.vpn in
          fr.vpn <- -1;
          Some v
        end
        else None)
      entries
  in
  shootdown_vpns t ~core vpns;
  Sim.Sync.Mutex.lock t.zone_lock;
  List.iter
    (fun (_, (fr : frame)) ->
      Dstruct.Clock_lru.set_active t.lru fr.fno false;
      fr.key <- -1;
      fr.dirty <- false;
      Queue.add fr.fno t.free)
    entries;
  Sim.Sync.Mutex.unlock t.zone_lock

(* Background flusher (kswapd/bdi writeback): wakes past the [hi]
   watermark and writes dirty pages back until below [lo], clearing tags
   under each file's tree_lock — so, as in Linux, a writeback storm
   contends with foreground faults (Section 7.2's "aggressive and
   unpredictable traffic"). *)
let flush_some t ~core ~batch =
  let taken = ref [] in
  Hashtbl.iter
    (fun file_id m ->
      if List.length !taken < batch then begin
        Sim.Sync.Mutex.lock m.tree_lock;
        let pages = Hashtbl.fold (fun p () acc -> p :: acc) m.dirty_tags [] in
        List.iteri
          (fun i p ->
            if i < batch - List.length !taken then
              match Dstruct.Radix_tree.find m.tree p with
              | Some fr when fr.dirty ->
                  fr.dirty <- false;
                  Hashtbl.remove m.dirty_tags p;
                  delay_sys ~label:"dirty" t.costs.Hw.Costs.radix_update;
                  taken := (Pagekey.make ~file:file_id ~page:p, fr) :: !taken
              | _ -> Hashtbl.remove m.dirty_tags p)
          (List.sort compare pages);
        Sim.Sync.Mutex.unlock m.tree_lock
      end)
    t.files;
  (* report pages actually cleaned, so an error storm (everything failing)
     reads as "no progress" and the flusher backs off to its waitq instead
     of spinning *)
  List.length !taken - clean_pairs t ~core !taken

let spawn_flusher t ~eng ?(hi = 256) ?(lo = 64) ?(core = 0) () =
  if t.flusher <> None then invalid_arg "Page_cache: flusher already running";
  t.flusher <- Some (hi, lo);
  ignore
    (Sim.Engine.spawn eng ~name:"kflushd" ~core ~daemon:true (fun () ->
         let continue_ = ref true in
         while !continue_ do
           Sim.Sync.Waitq.wait t.flusher_waitq;
           match t.flusher with
           | None -> continue_ := false
           | Some (_, lo) ->
               let progressing = ref true in
               while total_dirty t > lo && !progressing do
                 progressing := flush_some t ~core ~batch:32 > 0
               done
         done))

let stop_flusher t =
  t.flusher <- None;
  ignore (Sim.Sync.Waitq.signal t.flusher_waitq)

let evictions t = t.s_evictions

let dirty_pages t = total_dirty t
