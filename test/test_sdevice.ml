(* Tests for the storage device models (lib/sdevice). *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* Run [f] in a fresh engine fiber and return the elapsed virtual cycles. *)
let in_fiber f =
  let eng = Sim.Engine.create () in
  let out = ref None in
  ignore (Sim.Engine.spawn eng (fun () -> out := Some (f ())));
  Sim.Engine.run eng;
  (Option.get !out, Sim.Engine.now eng)

(* ---- Pagestore ---- *)

let pagestore_roundtrip () =
  let s = Sdevice.Pagestore.create () in
  let src = Bytes.of_string "hello across a page boundary!" in
  let addr = Int64.of_int (psz - 5) in
  Sdevice.Pagestore.write_bytes s ~addr ~src ~src_off:0 ~len:(Bytes.length src);
  let dst = Bytes.create (Bytes.length src) in
  Sdevice.Pagestore.read_bytes s ~addr ~len:(Bytes.length src) ~dst ~dst_off:0;
  Alcotest.(check string) "crosses pages" (Bytes.to_string src) (Bytes.to_string dst);
  checki "two pages materialized" 2 (Sdevice.Pagestore.allocated_pages s)

let pagestore_zero_fill () =
  let s = Sdevice.Pagestore.create () in
  let dst = Bytes.make 8 'x' in
  Sdevice.Pagestore.read_bytes s ~addr:123456L ~len:8 ~dst ~dst_off:0;
  Alcotest.(check string) "unwritten reads zero" (String.make 8 '\000')
    (Bytes.to_string dst);
  checki "reads allocate nothing" 0 (Sdevice.Pagestore.allocated_pages s)

let pagestore_pages () =
  let s = Sdevice.Pagestore.create () in
  let page = Bytes.make psz 'A' in
  Sdevice.Pagestore.write_page s ~page:7 ~src:page;
  let back = Bytes.create psz in
  Sdevice.Pagestore.read_page s ~page:7 ~dst:back;
  Alcotest.(check bool) "page equal" true (Bytes.equal page back)

let pagestore_prop =
  QCheck.Test.make ~name:"pagestore read-after-write at random offsets" ~count:100
    QCheck.(pair (int_bound 100000) (string_of_size (QCheck.Gen.int_range 1 5000)))
    (fun (off, data) ->
      data = ""
      ||
      let s = Sdevice.Pagestore.create () in
      let src = Bytes.of_string data in
      Sdevice.Pagestore.write_bytes s ~addr:(Int64.of_int off) ~src ~src_off:0
        ~len:(Bytes.length src);
      let dst = Bytes.create (Bytes.length src) in
      Sdevice.Pagestore.read_bytes s ~addr:(Int64.of_int off) ~len:(Bytes.length src)
        ~dst ~dst_off:0;
      Bytes.equal src dst)

(* The store matches one flat byte array over spans that cross page and
   256-page chunk boundaries and reach past the initial 4-chunk directory:
   unwritten bytes read as zero and [allocated_pages] counts the pages
   some write touched. *)
type ps_op =
  | Write_bytes of int * string
  | Read_bytes of int * int
  | Write_page of int * char
  | Read_page of int

let pagestore_model =
  let npages = 1100 in
  let reference = Bytes.make (npages * psz) '\000' in
  let print = function
    | Write_bytes (a, d) -> Printf.sprintf "write_bytes %d+%d" a (String.length d)
    | Read_bytes (a, n) -> Printf.sprintf "read_bytes %d+%d" a n
    | Write_page (p, ch) -> Printf.sprintf "write_page %d %C" p ch
    | Read_page p -> Printf.sprintf "read_page %d" p
  in
  let page =
    QCheck.Gen.(
      oneof
        [
          int_bound (npages - 1);
          map (fun x -> 254 + x) (int_bound 4);
          map (fun x -> 1022 + x) (int_bound 4);
        ])
  in
  let span =
    QCheck.Gen.(
      map3
        (fun p off len -> (min ((p * psz) + off) ((npages * psz) - len), len))
        page (int_bound (psz - 1)) (int_bound (3 * psz)))
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun (a, len) ch -> Write_bytes (a, String.make len ch))
              span printable );
          (3, map (fun (a, len) -> Read_bytes (a, len)) span);
          (1, map2 (fun p ch -> Write_page (p, ch)) page printable);
          (1, map (fun p -> Read_page p) page);
        ])
  in
  QCheck.Test.make ~name:"pagestore matches one byte array" ~count:100
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_range 1 30) op))
    (fun ops ->
      Bytes.fill reference 0 (Bytes.length reference) '\000';
      let s = Sdevice.Pagestore.create () in
      let written = Hashtbl.create 16 in
      let touch a len =
        if len > 0 then
          for p = a / psz to (a + len - 1) / psz do
            Hashtbl.replace written p ()
          done
      in
      List.for_all
        (function
          | Write_bytes (a, d) ->
              let len = String.length d in
              Sdevice.Pagestore.write_bytes s ~addr:(Int64.of_int a)
                ~src:(Bytes.of_string d) ~src_off:0 ~len;
              Bytes.blit_string d 0 reference a len;
              touch a len;
              true
          | Read_bytes (a, len) ->
              let dst = Bytes.make (len + 2) '?' in
              Sdevice.Pagestore.read_bytes s ~addr:(Int64.of_int a) ~len ~dst
                ~dst_off:1;
              Bytes.sub_string dst 1 len = Bytes.sub_string reference a len
              && Bytes.get dst 0 = '?'
              && Bytes.get dst (len + 1) = '?'
          | Write_page (p, ch) ->
              Sdevice.Pagestore.write_page s ~page:p ~src:(Bytes.make psz ch);
              Bytes.fill reference (p * psz) psz ch;
              touch (p * psz) psz;
              true
          | Read_page p ->
              let dst = Bytes.create psz in
              Sdevice.Pagestore.read_page s ~page:p ~dst;
              Bytes.to_string dst = Bytes.sub_string reference (p * psz) psz)
        ops
      && Sdevice.Pagestore.allocated_pages s = Hashtbl.length written)

(* ---- Block device / NVMe ---- *)

let nvme_latency_envelope () =
  let d = Sdevice.Nvme.create () in
  let t4k = Sdevice.Block_dev.service_time d ~len:psz in
  let us = Int64.to_float t4k /. 2400. in
  Alcotest.(check bool) "4K read ~10us (within 8-14us)" true (us > 8. && us < 14.);
  let t128k = Sdevice.Block_dev.service_time d ~len:(32 * psz) in
  Alcotest.(check bool) "sequential amortizes setup" true
    (Int64.to_float t128k < 32. *. Int64.to_float t4k)

let block_dev_queueing () =
  (* 12 concurrent 4K reads on 6 channels take two service rounds; the
     six that wait for a channel are blocked one service time each *)
  Metrics.Registry.reset ();
  let d = Sdevice.Nvme.create () in
  let svc = Sdevice.Block_dev.service_time d ~len:psz in
  let eng = Sim.Engine.create () in
  let ctxs =
    List.init 12 (fun i ->
        Sim.Engine.spawn eng ~core:i (fun () ->
            let b = Bytes.create psz in
            Sdevice.Block_dev.read d ~addr:(Int64.of_int (i * psz)) ~len:psz
              ~dst:b ~dst_off:0))
  in
  Sim.Engine.run eng;
  check64 "two rounds" (Int64.mul 2L svc) (Sim.Engine.now eng);
  checki "reads counted" 12 (Metrics.Registry.value "sdevice_reads");
  let queued (ctx : Sim.Engine.ctx) =
    Int64.sub (Int64.of_int ctx.idle) (Sim.Engine.label_get ctx "io_device")
  in
  check64 "queueing booked as idle" (Int64.mul 6L svc)
    (List.fold_left (fun acc ctx -> Int64.add acc (queued ctx)) 0L ctxs)

let block_dev_bounds () =
  let d = Sdevice.Nvme.create ~capacity_bytes:8192L () in
  let b = Bytes.create psz in
  Alcotest.check_raises "out of capacity"
    (Invalid_argument "nvme0: I/O outside device capacity") (fun () ->
      ignore (in_fiber (fun () -> Sdevice.Block_dev.read d ~addr:8192L ~len:psz ~dst:b ~dst_off:0)))

let block_dev_data () =
  let d = Sdevice.Nvme.create () in
  ignore
    (in_fiber (fun () ->
         let src = Bytes.make psz 'Q' in
         Sdevice.Block_dev.write d ~addr:4096L ~src ~src_off:0 ~len:psz;
         let dst = Bytes.create psz in
         Sdevice.Block_dev.read d ~addr:4096L ~len:psz ~dst ~dst_off:0;
         Alcotest.(check bool) "data persisted" true (Bytes.equal src dst)))

(* ---- Pmem / DAX ---- *)

let pmem_dax_costs () =
  let p = Sdevice.Pmem.create () in
  let dst = Bytes.create psz in
  let simd = Sdevice.Pmem.dax_read p c ~simd:true ~addr:0L ~len:psz ~dst ~dst_off:0 in
  let scalar = Sdevice.Pmem.dax_read p c ~simd:false ~addr:0L ~len:psz ~dst ~dst_off:0 in
  Alcotest.(check bool) "SIMD ~2x cheaper" true
    (Int64.to_float scalar /. Int64.to_float simd > 1.7);
  checki "reads counted" 2 (Sdevice.Pmem.dax_reads p)

let pmem_dax_roundtrip () =
  let p = Sdevice.Pmem.create () in
  let src = Bytes.of_string "persistent bytes" in
  ignore
    (Sdevice.Pmem.dax_write p c ~simd:true ~addr:4000L ~src ~src_off:0
       ~len:(Bytes.length src));
  let dst = Bytes.create (Bytes.length src) in
  ignore
    (Sdevice.Pmem.dax_read p c ~simd:true ~addr:4000L ~len:(Bytes.length src) ~dst
       ~dst_off:0);
  Alcotest.(check bool) "roundtrip" true (Bytes.equal src dst)

(* ---- Access methods ---- *)

let cost_of access =
  let (), cycles =
    in_fiber (fun () ->
        let b = Bytes.create psz in
        Sdevice.Access.read_page access ~page:0 ~dst:b)
  in
  cycles

let access_cost_ordering () =
  (* For a 4K pmem read: DAX < HOST(kernel) < HOST(user) < HOST(guest). *)
  let p () = Sdevice.Pmem.create () in
  let dax = cost_of (Sdevice.Access.dax_pmem c (p ())) in
  let kern = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.In_kernel (p ())) in
  let user = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_user (p ())) in
  let guest = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_guest (p ())) in
  Alcotest.(check bool) "dax < kernel path" true (dax < kern);
  Alcotest.(check bool) "kernel < syscall" true (kern < user);
  Alcotest.(check bool) "syscall < vmcall" true (user < guest)

let access_spdk_vs_host_nvme () =
  let spdk = cost_of (Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let host =
    cost_of
      (Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_guest
         (Sdevice.Nvme.create ()))
  in
  Alcotest.(check bool) "SPDK bypass cheaper" true (spdk < host)

let access_uring_between_spdk_and_host () =
  (* io_uring amortizes syscalls: cheaper than synchronous host I/O but
     still above the kernel-bypass SPDK path *)
  let spdk = cost_of (Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let uring =
    cost_of
      (Sdevice.Access.uring_nvme c ~entry:Sdevice.Access.From_user
         (Sdevice.Nvme.create ()))
  in
  let host =
    cost_of
      (Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_user
         (Sdevice.Nvme.create ()))
  in
  Alcotest.(check bool) "spdk < uring" true (spdk < uring);
  Alcotest.(check bool) "uring < host sync" true (uring < host)

let access_moves_data () =
  let nvme = Sdevice.Nvme.create () in
  let a = Sdevice.Access.spdk_nvme c nvme in
  ignore
    (in_fiber (fun () ->
         let src = Bytes.make (2 * psz) 'Z' in
         Sdevice.Access.write_pages a ~page:3 ~count:2 ~src;
         let dst = Bytes.create (2 * psz) in
         Sdevice.Access.read_pages a ~page:3 ~count:2 ~dst;
         Alcotest.(check bool) "multi-page roundtrip" true (Bytes.equal src dst)))

let access_rejects_small_buffer () =
  let a = Sdevice.Access.dax_pmem c (Sdevice.Pmem.create ()) in
  Alcotest.check_raises "buffer too small" (Invalid_argument "Access: buffer too small")
    (fun () ->
      ignore
        (in_fiber (fun () ->
             Sdevice.Access.read_pages a ~page:0 ~count:2 ~dst:(Bytes.create psz))))

(* ---- Staging buffers ---- *)

let bufpool_lends_and_takes_back () =
  let p = Sdevice.Bufpool.pages () in
  let first = Sdevice.Bufpool.with_pages p 3 (fun b -> b) in
  checki "rounded up to a power of two" (4 * psz) (Bytes.length first);
  Sdevice.Bufpool.with_pages p 4 (fun b ->
      Alcotest.(check bool) "returned buffer reused" true (b == first);
      Sdevice.Bufpool.with_pages p 4 (fun b' ->
          Alcotest.(check bool) "a held buffer is not lent twice" false (b' == b)));
  (try Sdevice.Bufpool.with_pages p 4 (fun _ -> failwith "boom") with Failure _ -> ());
  Sdevice.Bufpool.with_pages p 4 (fun b ->
      Alcotest.(check bool) "given back on an exception too" true (b == first));
  Alcotest.check_raises "no empty buffers"
    (Invalid_argument "Bufpool.with_pages: page count out of range") (fun () ->
      Sdevice.Bufpool.with_pages p 0 ignore)

(* Every device page and every dirtied frame gets bytes of its own (a
   header naming the page and its origin), so a page staged through
   another transfer's buffer cannot pass. *)
let page_bytes ~origin p =
  let b = Bytes.init psz (fun i -> Char.chr (((7 * i) + (31 * p) + origin) land 0xff)) in
  Bytes.set_uint16_le b 0 p;
  Bytes.set_uint8 b 2 origin;
  b

let device_bytes = page_bytes ~origin:1
let frame_bytes = page_bytes ~origin:2

let nvme_with_pages n =
  let dev = Sdevice.Nvme.create () in
  for p = 0 to n - 1 do
    Sdevice.Pagestore.write_page (Sdevice.Block_dev.store dev) ~page:p ~src:(device_bytes p)
  done;
  dev

let device_page dev p =
  let b = Bytes.create psz in
  Sdevice.Pagestore.read_page (Sdevice.Block_dev.store dev) ~page:p ~dst:b;
  b

(* Runs each fiber on its own core, all starting at cycle 0. *)
let run_fibers fibers =
  let eng = Sim.Engine.create () in
  List.iteri (fun core f -> ignore (Sim.Engine.spawn eng ~core (fun () -> f core))) fibers;
  Sim.Engine.run eng

let check_page what want got =
  Alcotest.(check bool) what true (Bytes.equal want got)

(* Two files of 256 pages over one NVMe device: file [f] is device pages
   [base f ..].  Pages 128.. of both are dirtied, then two readahead fills
   of file 1 and both files' merged write-backs run at once on the host
   NVMe path, where a transfer suspends between staging its bytes and the
   device (or its reader) consuming them: a buffer lent to two transfers
   hands one of them the other's bytes. *)
let base f = (f - 1) * 256
let translate f p = if p < 256 then Some (base f + p) else None

let check_transfers ~dev ~frame ~filled ~dirty =
  run_fibers
    [
      (fun core ->
        List.iter
          (fun p ->
            check_page (Printf.sprintf "frame of page %d" p) (device_bytes p) (frame ~core 1 p))
          filled);
    ];
  List.iter
    (fun f ->
      List.iter
        (fun p ->
          let d = base f + p in
          check_page (Printf.sprintf "device page %d" d) (frame_bytes d) (device_page dev d))
        dirty)
    [ 1; 2 ]

let staging_not_shared_dram_cache () =
  let dev = nvme_with_pages 512 in
  let pt = Hw.Page_table.create () in
  let cache =
    Mcache.Dram_cache.create ~costs:c ~machine:(Hw.Machine.create ()) ~page_table:pt
      { (Mcache.Dram_cache.default_config ~frames:64) with readahead = 3 }
  in
  let access = Sdevice.Access.host_nvme c ~entry:Sdevice.Access.In_kernel dev in
  List.iter
    (fun f -> Mcache.Dram_cache.register_file cache ~file_id:f ~access ~translate:(translate f))
    [ 1; 2 ];
  let map ~write ~core f p =
    let vpn = (1000 * f) + p in
    Mcache.Dram_cache.fault cache ~core ~key:(Mcache.Pagekey.make ~file:f ~page:p) ~vpn ~write ();
    Mcache.Dram_cache.pfn_data cache (Hw.Page_table.pfn pt ~vpn)
  in
  let frame = map ~write:false in
  let dirty = [ 128; 129; 130; 131 ] in
  run_fibers
    [
      (fun core ->
        List.iter
          (fun f ->
            List.iter
              (fun p -> Bytes.blit (frame_bytes (base f + p)) 0 (map ~write:true ~core f p) 0 psz)
              dirty)
          [ 1; 2 ]);
    ];
  let reads0 = Mcache.Dram_cache.read_ios cache in
  run_fibers
    [
      (fun core -> ignore (frame ~core 1 0));
      (fun core -> ignore (frame ~core 1 64));
      (fun core -> Mcache.Dram_cache.msync cache ~core ~file:1 ());
      (fun core -> Mcache.Dram_cache.msync cache ~core ~file:2 ());
    ];
  checki "two 4-page fills" 2 (Mcache.Dram_cache.read_ios cache - reads0);
  checki "two merged write-backs" 2 (Mcache.Dram_cache.writeback_ios cache);
  checki "of 4 pages each" 8 (Mcache.Dram_cache.writeback_pages cache);
  check_transfers ~dev ~frame ~filled:[ 0; 1; 2; 3; 64; 65; 66; 67 ] ~dirty

let staging_not_shared_page_cache () =
  Metrics.Registry.reset ();
  let dev = nvme_with_pages 512 in
  let pc =
    Linux_sim.Page_cache.create ~costs:c ~machine:(Hw.Machine.create ())
      ~page_table:(Hw.Page_table.create ())
      { (Linux_sim.Page_cache.default_config ~frames:64) with readahead = 8 }
  in
  let access = Sdevice.Access.host_nvme c ~entry:Sdevice.Access.In_kernel dev in
  List.iter
    (fun f -> Linux_sim.Page_cache.register_file pc ~file_id:f ~access ~translate:(translate f))
    [ 1; 2 ];
  let frame ~core f p =
    Linux_sim.Page_cache.pfn_data pc
      (Linux_sim.Page_cache.buffered_read pc ~core ~key:(Mcache.Pagekey.make ~file:f ~page:p))
  in
  let dirty = List.init 8 (fun i -> 128 + i) in
  run_fibers
    [
      (fun core ->
        List.iter
          (fun f ->
            List.iter
              (fun p ->
                Bytes.blit (frame_bytes (base f + p)) 0 (frame ~core f p) 0 psz;
                Linux_sim.Page_cache.set_dirty_key pc ~key:(Mcache.Pagekey.make ~file:f ~page:p))
              dirty)
          [ 1; 2 ]);
    ];
  (* [linux_cache_misses] counts one per fill, whatever its window *)
  let reads0 = Metrics.Registry.value "linux_cache_misses" in
  run_fibers
    [
      (fun core -> ignore (frame ~core 1 0));
      (fun core -> ignore (frame ~core 1 64));
      (fun core -> Linux_sim.Page_cache.msync_file pc ~core ~file_id:1);
      (fun core -> Linux_sim.Page_cache.msync_file pc ~core ~file_id:2);
    ];
  checki "two 8-page fills" 2 (Metrics.Registry.value "linux_cache_misses" - reads0);
  checki "two merged write-backs" 2 (Metrics.Registry.value "linux_cache_wb_ios");
  check_transfers ~dev ~frame ~filled:(List.init 8 Fun.id @ List.init 8 (fun i -> 64 + i)) ~dirty

(* 200 merged write-backs of 32 pages and 200 readahead fills of 9 pages
   through one cache allocate their staging once: the major heap grows by
   less than one 9-page buffer per 20 transfers.  The device pages exist
   beforehand, so their first-touch allocation is not counted. *)
let staging_allocates_once () =
  let rounds = 200 and run = 32 and ra = 8 in
  let fill0 = 1024 in
  let dev = nvme_with_pages (fill0 + (rounds * (ra + 1))) in
  let pt = Hw.Page_table.create () in
  let cache =
    Mcache.Dram_cache.create ~costs:c ~machine:(Hw.Machine.create ()) ~page_table:pt
      { (Mcache.Dram_cache.default_config ~frames:4096) with readahead = ra }
  in
  Mcache.Dram_cache.register_file cache ~file_id:1
    ~access:(Sdevice.Access.spdk_nvme c dev) ~translate:(fun p -> Some p);
  let fault ~write p =
    Mcache.Dram_cache.fault cache ~core:0 ~key:(Mcache.Pagekey.make ~file:1 ~page:p)
      ~vpn:(1000 + p) ~write ()
  in
  let _, promoted0, major0 = Gc.counters () in
  run_fibers
    [
      (fun _ ->
        for r = 0 to rounds - 1 do
          for p = 0 to run - 1 do
            fault ~write:true p
          done;
          Mcache.Dram_cache.msync cache ~core:0 ();
          fault ~write:false (fill0 + (r * (ra + 1)))
        done);
    ];
  let _, promoted1, major1 = Gc.counters () in
  checki "merged write-backs" rounds (Mcache.Dram_cache.writeback_ios cache);
  checki "pages written back" (rounds * run) (Mcache.Dram_cache.writeback_pages cache);
  (* the first round's write faults read pages 0..31 in 4 fills *)
  checki "readahead fills" (rounds + 4) (Mcache.Dram_cache.read_ios cache);
  let direct = int_of_float (major1 -. major0 -. (promoted1 -. promoted0)) in
  let budget = 2 * rounds / 20 * ((ra + 1) * psz / (Sys.word_size / 8)) in
  if direct >= budget then
    Alcotest.failf "%d words allocated on the major heap, budget %d" direct budget

(* ---- Merged write-back ---- *)

type wb_item = { file : int; page : int; dev : int option; data : Bytes.t }

(* Writes file 1's pages 0-5 (device pages 100-105), its page 6 (device
   page 200, after a gap) and 7 (no device page), and file 2's page 0
   (device page 201, right after file 1's page 6) through a 4-page merge.
   Returns the items, the page count of each run that reached the device,
   and the failed items. *)
let write_merged_round access =
  let item file page dev =
    { file; page; dev; data = Bytes.make psz (Char.chr (65 + (8 * file) + page)) }
  in
  let items =
    [ item 2 0 (Some 201); item 1 7 None; item 1 6 (Some 200) ]
    @ List.init 6 (fun p -> item 1 p (Some (100 + p)))
  in
  let runs = ref [] in
  let failed, _ =
    in_fiber (fun () ->
        Sdevice.Access.write_merged (Sdevice.Bufpool.pages ()) ~merge:4
          ~cat:"test"
          ~key:(fun x -> (x.file * 1000) + x.page)
          ~file:(fun x -> x.file)
          ~dev:(fun x -> x.dev)
          ~access:(fun _ -> access)
          ~data:(fun x -> x.data)
          ~written:(fun n -> runs := n :: !runs)
          items)
  in
  (items, List.rev !runs, failed)

let device_page access page =
  let dst = Bytes.create psz in
  ignore (in_fiber (fun () -> Sdevice.Access.read_page access ~page ~dst));
  dst

let merged_writeback_runs () =
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (256 * psz)) () in
  let access = Sdevice.Access.dax_pmem c pmem in
  let items, runs, failed = write_merged_round access in
  (* 0-3 and 4-5 split at the merge limit; the gap and the file change
     each start a run; the untranslatable page is skipped *)
  Alcotest.(check (list int)) "runs" [ 4; 2; 1; 1 ] runs;
  checki "nothing failed" 0 (List.length failed);
  List.iter
    (fun x ->
      Option.iter
        (fun d -> Alcotest.(check bytes) "on device" x.data (device_page access d))
        x.dev)
    items

let merged_writeback_failed_run () =
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (256 * psz)) () in
  let access = Sdevice.Access.dax_pmem c pmem in
  let plan =
    Fault.Plan.make
      { Fault.Plan.default with read_error = 1.0; permanent = 1.0 }
  in
  let items, runs, failed =
    Fault.with_plan plan (fun () ->
        (* a failed read marks device page 104 bad for good, so the one
           run that touches it fails Permanent *)
        ignore
          (in_fiber (fun () ->
               Sdevice.Access.read_pages_result access ~page:104 ~count:1
                 ~dst:(Bytes.create psz)));
        write_merged_round access)
  in
  Alcotest.(check (list int)) "other runs written" [ 4; 1; 1 ] runs;
  Alcotest.(check (list (pair int int)))
    "exactly the failed run" [ (1, 4); (1, 5) ]
    (List.map (fun (x, _) -> (x.file, x.page)) failed);
  List.iter
    (fun (_, e) -> Alcotest.(check bool) "permanent" true (e = Fault.Permanent))
    failed;
  List.iter
    (fun x ->
      match x.dev with
      | Some d when d <> 104 && d <> 105 ->
          Alcotest.(check bytes) "reached the device" x.data (device_page access d)
      | _ -> ())
    items

(* An msync of two runs of file 1 over host NVMe: while the first run's
   write is at the device, a fault of another fiber finds no free frame,
   evicts frames the msync has already marked clean, and reads pages of
   file 2 (on pmem) into them.  The second run must still write the
   bytes the msync was asked to save. *)
let merged_writeback_outlives_eviction () =
  let dev = nvme_with_pages 256 in
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (64 * psz)) () in
  let frames = 8 in
  let pt = Hw.Page_table.create () in
  let cache =
    Mcache.Dram_cache.create ~costs:c ~machine:(Hw.Machine.create ()) ~page_table:pt
      (Mcache.Dram_cache.default_config ~frames)
  in
  (* file 1's pages 0-3 are device pages 100-103 and 4-7 are 200-203 *)
  let dev_of p = if p < 4 then 100 + p else 196 + p in
  let nvme = Sdevice.Access.host_nvme c ~entry:Sdevice.Access.In_kernel dev in
  Mcache.Dram_cache.register_file cache ~file_id:1 ~access:nvme
    ~translate:(fun p -> if p < frames then Some (dev_of p) else None);
  Mcache.Dram_cache.register_file cache ~file_id:2
    ~access:(Sdevice.Access.dax_pmem c pmem)
    ~translate:(fun p -> if p < 64 then Some p else None);
  let map ~write ~core f p =
    let vpn = (1000 * f) + p in
    Mcache.Dram_cache.fault cache ~core ~key:(Mcache.Pagekey.make ~file:f ~page:p) ~vpn ~write ();
    Mcache.Dram_cache.pfn_data cache (Hw.Page_table.pfn pt ~vpn)
  in
  let syncing = Sim.Sync.Ivar.create () in
  let evicted_during = ref 0 in
  run_fibers
    [
      (fun core ->
        for p = 0 to frames - 1 do
          Bytes.blit (frame_bytes (dev_of p)) 0 (map ~write:true ~core 1 p) 0 psz
        done;
        Sim.Sync.Ivar.fill syncing ();
        Mcache.Dram_cache.msync cache ~core ();
        evicted_during := Mcache.Dram_cache.evictions cache);
      (fun core ->
        Sim.Sync.Ivar.read syncing;
        for p = 0 to frames - 1 do
          ignore (map ~write:false ~core 2 p)
        done);
    ];
  checki "one write-back per run" 2 (Mcache.Dram_cache.writeback_ios cache);
  checki "every frame evicted before the msync returned" frames !evicted_during;
  for p = 0 to frames - 1 do
    let d = dev_of p in
    check_page (Printf.sprintf "device page %d" d) (frame_bytes d) (device_page nvme d)
  done

let () =
  Alcotest.run "sdevice"
    [
      ( "pagestore",
        [
          Alcotest.test_case "roundtrip across pages" `Quick pagestore_roundtrip;
          Alcotest.test_case "zero fill" `Quick pagestore_zero_fill;
          Alcotest.test_case "whole pages" `Quick pagestore_pages;
          QCheck_alcotest.to_alcotest pagestore_prop;
          QCheck_alcotest.to_alcotest pagestore_model;
        ] );
      ( "block dev",
        [
          Alcotest.test_case "nvme latency envelope" `Quick nvme_latency_envelope;
          Alcotest.test_case "queueing" `Quick block_dev_queueing;
          Alcotest.test_case "capacity bounds" `Quick block_dev_bounds;
          Alcotest.test_case "data" `Quick block_dev_data;
        ] );
      ( "pmem",
        [
          Alcotest.test_case "dax costs" `Quick pmem_dax_costs;
          Alcotest.test_case "dax roundtrip" `Quick pmem_dax_roundtrip;
        ] );
      ( "access",
        [
          Alcotest.test_case "cost ordering" `Quick access_cost_ordering;
          Alcotest.test_case "spdk vs host nvme" `Quick access_spdk_vs_host_nvme;
          Alcotest.test_case "io_uring in between" `Quick access_uring_between_spdk_and_host;
          Alcotest.test_case "moves data" `Quick access_moves_data;
          Alcotest.test_case "buffer validation" `Quick access_rejects_small_buffer;
        ] );
      ( "staging",
        [
          Alcotest.test_case "pool lends and takes back" `Quick bufpool_lends_and_takes_back;
          Alcotest.test_case "dram cache transfers never share" `Quick
            staging_not_shared_dram_cache;
          Alcotest.test_case "page cache transfers never share" `Quick
            staging_not_shared_page_cache;
          Alcotest.test_case "400 transfers allocate once" `Quick staging_allocates_once;
        ] );
      ( "writeback",
        [
          Alcotest.test_case "run splits" `Quick merged_writeback_runs;
          Alcotest.test_case "failed run only" `Quick merged_writeback_failed_run;
          Alcotest.test_case "an eviction during the write-back" `Quick
            merged_writeback_outlives_eviction;
        ] );
    ]
