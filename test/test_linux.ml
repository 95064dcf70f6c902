(* Tests for the Linux baseline (lib/linux_sim): kernel page cache,
   mmap path, and read/write syscalls. *)

let psz = Hw.Defs.page_size
let checki = Alcotest.(check int)

type rig = { msys : Linux_sim.Mmap_sys.t; file : Linux_sim.Mmap_sys.file }

let make_rig ?(frames = 32) ?(readahead = 1) ?(file_pages = 256) () =
  let cfg =
    {
      Linux_sim.Mmap_sys.cache =
        { (Linux_sim.Page_cache.default_config ~frames) with readahead };
    }
  in
  let msys = Linux_sim.Mmap_sys.create cfg in
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access =
    Sdevice.Access.host_pmem (Linux_sim.Mmap_sys.costs msys)
      ~entry:Sdevice.Access.In_kernel pmem
  in
  let file =
    Linux_sim.Mmap_sys.attach_file msys ~name:"t" ~access
      ~translate:(fun p -> if p < file_pages then Some p else None)
      ~size_pages:file_pages
  in
  { msys; file }

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng;
  eng

let mmap_rw_roundtrip () =
  let r = make_rig ~frames:16 () in
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:100 () in
         for p = 0 to 99 do
           Linux_sim.Mmap_sys.write r.msys region ~off:(p * psz)
             ~src:(Bytes.make 8 (Char.chr (48 + (p mod 10))))
         done;
         for p = 0 to 99 do
           let dst = Bytes.create 8 in
           Linux_sim.Mmap_sys.read r.msys region ~off:(p * psz) ~len:8 ~dst;
           Alcotest.(check char) (Printf.sprintf "page %d" p)
             (Char.chr (48 + (p mod 10)))
             (Bytes.get dst 0)
         done;
         (* 100 pages through 16 frames: reclaim ran *)
         Alcotest.(check bool) "reclaimed" true
           (Linux_sim.Page_cache.evictions (Linux_sim.Mmap_sys.page_cache r.msys) > 0)))

let readahead_fills_cluster () =
  Metrics.Registry.reset ();
  let r = make_rig ~frames:64 ~readahead:8 () in
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:64 () in
         let pc = Linux_sim.Mmap_sys.page_cache r.msys in
         Linux_sim.Mmap_sys.touch r.msys region ~page:0 ~write:false;
         (* one [linux_cache_misses] per fill, whatever its window *)
         checki "one io for the window" 1
           (Metrics.Registry.value "linux_cache_misses");
         Alcotest.(check bool) "neighbour resident" true
           (Linux_sim.Page_cache.is_resident pc
              ~key:(Mcache.Pagekey.make ~file:(Linux_sim.Mmap_sys.file_id r.file) ~page:7));
         (* the neighbour faults as a minor fault: no new I/O *)
         Linux_sim.Mmap_sys.touch r.msys region ~page:7 ~write:false;
         checki "still one io" 1 (Metrics.Registry.value "linux_cache_misses")))

let tree_lock_contends () =
  let r = make_rig ~frames:512 ~file_pages:2048 () in
  let eng = Sim.Engine.create () in
  let region = ref None in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         region := Some (Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:2048 ())));
  Sim.Engine.run eng;
  let tr = Trace.start () in
  let fids =
    List.init 8 (fun t ->
        (Sim.Engine.spawn eng ~core:t (fun () ->
             Linux_sim.Mmap_sys.enter_thread r.msys;
             for i = 0 to 127 do
               Linux_sim.Mmap_sys.touch r.msys (Option.get !region)
                 ~page:((t * 128) + i) ~write:false
             done))
          .Sim.Engine.fid)
  in
  Sim.Engine.run eng;
  ignore (Trace.stop ());
  Alcotest.(check bool) "tree_lock contention recorded" true
    (List.exists
       (fun (e : Trace.event) -> e.ev_name = "blocked" && List.mem e.ev_fiber fids)
       (Trace.events tr))

let msync_cleans () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:8 () in
         Linux_sim.Mmap_sys.write r.msys region ~off:0 ~src:(Bytes.make 16 'd');
         let pc = Linux_sim.Mmap_sys.page_cache r.msys in
         Alcotest.(check bool) "dirty" true (Linux_sim.Page_cache.dirty_pages pc > 0);
         let wb0 = Metrics.Registry.value "linux_cache_wb_ios" in
         Linux_sim.Mmap_sys.msync r.msys region;
         checki "clean" 0 (Linux_sim.Page_cache.dirty_pages pc);
         Alcotest.(check bool) "written" true
           (Metrics.Registry.value "linux_cache_wb_ios" > wb0)))

let background_flusher_cleans () =
  let r = make_rig ~frames:128 ~file_pages:256 () in
  let eng = Sim.Engine.create () in
  let pc = Linux_sim.Mmap_sys.page_cache r.msys in
  let wb0 = Metrics.Registry.value "linux_cache_wb_ios" in
  Linux_sim.Page_cache.spawn_flusher pc ~eng ~hi:16 ~lo:4 ~core:1 ();
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:64 () in
         for p = 0 to 63 do
           Linux_sim.Mmap_sys.write r.msys region ~off:(p * psz)
             ~src:(Bytes.make 8 'f')
         done));
  Sim.Engine.run eng;
  Alcotest.(check bool)
    (Printf.sprintf "flushed below lo (%d dirty)"
       (Linux_sim.Page_cache.dirty_pages pc))
    true
    (Linux_sim.Page_cache.dirty_pages pc <= 4);
  Alcotest.(check bool) "writebacks happened" true
    (Metrics.Registry.value "linux_cache_wb_ios" > wb0);
  Linux_sim.Page_cache.stop_flusher pc;
  Sim.Engine.run eng

let linux_fault_pays_ring3_trap () =
  let r = make_rig () in
  let eng =
    in_sim (fun () ->
        Linux_sim.Mmap_sys.enter_thread r.msys;
        let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:1 () in
        Linux_sim.Mmap_sys.touch r.msys region ~page:0 ~write:false)
  in
  ignore eng;
  checki "one fault" 1 (Linux_sim.Mmap_sys.faults r.msys)

(* ---- Readwrite (direct-I/O syscalls) ---- *)

let direct_pread_pwrite () =
  let pmem = Sdevice.Pmem.create () in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  let fd =
    Linux_sim.Readwrite.open_direct ~access
      ~translate:(fun p -> if p < 64 then Some (p + 10) else None)
      ~size_pages:64 ~staging:(Sdevice.Bufpool.pages ())
  in
  ignore
    (in_sim (fun () ->
         let src = Bytes.make (2 * psz) 'D' in
         Linux_sim.Readwrite.pwrite fd ~off:(4 * psz) ~src;
         (* unaligned reads are fine (kernel rounds to pages) *)
         let dst = Bytes.create 100 in
         Linux_sim.Readwrite.pread fd ~off:((4 * psz) + 50) ~len:100 ~dst;
         Alcotest.(check string) "data" (String.make 100 'D') (Bytes.to_string dst)));
  checki "write counted" 1 (Linux_sim.Readwrite.writes fd);
  Alcotest.check_raises "O_DIRECT alignment"
    (Invalid_argument "Readwrite.pwrite: O_DIRECT requires page alignment") (fun () ->
      ignore
        (in_sim (fun () ->
             Linux_sim.Readwrite.pwrite fd ~off:5 ~src:(Bytes.create psz))))

(* A transfer spanning a discontiguity in the file's device mapping is
   split into one device request per run; the run after the gap is
   staged in a second buffer and must land at its own offset. *)
let direct_rw_across_device_gap () =
  let pmem = Sdevice.Pmem.create () in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  let dev_of p = if p < 4 then p + 10 else p + 36 in
  let fd =
    Linux_sim.Readwrite.open_direct ~access
      ~translate:(fun p -> if p < 8 then Some (dev_of p) else None)
      ~size_pages:8 ~staging:(Sdevice.Bufpool.pages ())
  in
  let src = Bytes.init (8 * psz) (fun i -> Char.chr (((i / psz * 41) + (i mod 7) + 1) land 0xff)) in
  let dst = Bytes.create (2 * psz) in
  ignore
    (in_sim (fun () ->
         (* the first 6 of the 8 pages: 4 before the gap, 2 after it *)
         Linux_sim.Readwrite.pwrite ~len:(6 * psz) fd ~off:0 ~src;
         Linux_sim.Readwrite.pread fd ~off:((3 * psz) + 100) ~len:(2 * psz) ~dst));
  let page = Bytes.create psz in
  for p = 0 to 7 do
    Sdevice.Pagestore.read_page (Sdevice.Pmem.store pmem) ~page:(dev_of p) ~dst:page;
    let want = if p < 6 then Bytes.sub src (p * psz) psz else Bytes.make psz '\000' in
    Alcotest.(check bool) (Printf.sprintf "device page of file page %d" p) true
      (Bytes.equal want page)
  done;
  Alcotest.(check bool) "read across the gap" true
    (Bytes.equal (Bytes.sub src ((3 * psz) + 100) (2 * psz)) dst)

let () =
  Alcotest.run "linux_sim"
    [
      ( "mmap",
        [
          Alcotest.test_case "rw roundtrip with reclaim" `Quick mmap_rw_roundtrip;
          Alcotest.test_case "fault readahead" `Quick readahead_fills_cluster;
          Alcotest.test_case "tree_lock contention" `Quick tree_lock_contends;
          Alcotest.test_case "msync" `Quick msync_cleans;
          Alcotest.test_case "background flusher" `Quick background_flusher_cleans;
          Alcotest.test_case "fault counted" `Quick linux_fault_pays_ring3_trap;
        ] );
      ( "readwrite",
        [
          Alcotest.test_case "direct pread/pwrite" `Quick direct_pread_pwrite;
          Alcotest.test_case "direct I/O across a device gap" `Quick direct_rw_across_device_gap;
        ] );
    ]
