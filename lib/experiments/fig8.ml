(* Figure 8: page-fault overhead breakdowns and device access methods. *)

let psz = Hw.Defs.page_size

let io_labels = [ "io_device"; "io_kernel"; "io_syscall"; "io_memcpy"; "io_driver" ]
let tlb_labels = [ "tlb"; "tlb_walk" ]
let evict_labels = [ "evict"; "writeback" ]

let handler_labels =
  [ "fault_entry"; "vma"; "index"; "alloc"; "map"; "lru"; "dirty"; "ept"; "copy" ]

let per_fault (r : Microbench.result) labels =
  Scenario.cycles_per_op r.Microbench.ctxs labels (max 1 r.Microbench.faults)

let breakdown_row name r =
  let g = per_fault r in
  let trap = g [ "trap" ] in
  let io = g io_labels in
  let tlb = g tlb_labels in
  let evict = g evict_labels in
  let handler = g handler_labels in
  let total = trap +. io +. tlb +. evict +. handler in
  [
    name;
    Stats.Table_fmt.kcycles trap;
    Stats.Table_fmt.kcycles handler;
    Stats.Table_fmt.kcycles io;
    Stats.Table_fmt.kcycles evict;
    Stats.Table_fmt.kcycles tlb;
    Stats.Table_fmt.kcycles total;
    Stats.Table_fmt.usec_of_cycles total;
  ]

let header =
  [ "system"; "trap"; "handler"; "device I/O"; "evict+wb"; "TLB"; "total/fault"; "latency" ]

(* (a) in-memory dataset: pure fault cost, no evictions. *)
let run_a () =
  let file_pages = 3072 and frames = 4096 in
  let run sys_mk =
    let eng = Sim.Engine.create () in
    let sys = sys_mk () in
    let r =
      Microbench.run ~eng ~sys ~file_pages ~shared:true ~threads:1
        ~ops_per_thread:file_pages ~pattern:Microbench.Permutation ()
    in
    (sys, r)
  in
  let _, linux =
    run (fun () ->
        Microbench.Lx (Scenario.make_linux ~readahead:1 ~frames ~dev:Scenario.Pmem ()))
  in
  let _, aquila =
    run (fun () -> Microbench.Aq (Scenario.make_aquila ~frames ~dev:Scenario.Pmem ()))
  in
  Stats.Table_fmt.print_table
    ~title:
      "Figure 8(a): page-fault breakdown, dataset fits in memory (pmem, 1 thread)"
    ~header
    [ breakdown_row "Linux mmap" linux; breakdown_row "Aquila" aquila ];
  let total r =
    per_fault r (("trap" :: handler_labels) @ tlb_labels @ evict_labels @ io_labels)
  in
  let lt = total linux in
  let at = total aquila in
  Sim.Sink.printf
    "paper: Linux fault ~5380 cycles (trap 24%%, I/O 49%%); Aquila trap 552 vs 1287 \
     cycles (2.33x); fault latency -45.3%%\n";
  Sim.Sink.printf "measured: fault latency reduction %.1f%% (Linux %.0f vs Aquila %.0f cycles)\n"
    (100. *. (1. -. (at /. lt)))
    lt at

(* (b) dataset larger than the cache: evictions in the common path. *)
let run_b () =
  let file_pages = 25600 and frames = 2048 in
  let mk_run sys_mk =
    let eng = Sim.Engine.create () in
    let sys = sys_mk () in
    Microbench.run ~eng ~sys ~file_pages ~shared:true ~threads:1
      ~ops_per_thread:12000 ~pattern:Microbench.Uniform ~write_fraction:0.3 ()
  in
  let linux =
    mk_run (fun () ->
        Microbench.Lx (Scenario.make_linux ~readahead:1 ~frames ~dev:Scenario.Pmem ()))
  in
  let aquila =
    mk_run (fun () -> Microbench.Aq (Scenario.make_aquila ~frames ~dev:Scenario.Pmem ()))
  in
  Stats.Table_fmt.print_table
    ~title:
      "Figure 8(b): page-fault breakdown with evictions (8MB-class cache, \
       12.5x dataset, pmem)"
    ~header
    [ breakdown_row "Linux mmap" linux; breakdown_row "Aquila" aquila ];
  let tot (r : Microbench.result) =
    Int64.to_float r.Microbench.elapsed_cycles /. float_of_int (max 1 r.Microbench.ops)
  in
  Sim.Sink.printf "paper: Aquila 2.06x lower overhead than Linux mmap\n";
  Sim.Sink.printf "measured: %.2fx (Linux %.0f vs Aquila %.0f cycles/op)\n"
    (tot linux /. tot aquila) (tot linux) (tot aquila)

(* (c) device-access methods inside Aquila. *)
let run_c () =
  let pages = 2000 in
  let methods =
    [
      ( "Cache-Hit",
        fun costs _ ->
          (* any access works; the measured phase never reaches the device *)
          Sdevice.Access.dax_pmem costs (Sdevice.Pmem.create ()) );
      ("DAX-pmem", fun costs _ -> Sdevice.Access.dax_pmem costs (Sdevice.Pmem.create ()));
      ( "HOST-pmem",
        fun costs _ ->
          Sdevice.Access.host_pmem costs ~entry:Sdevice.Access.From_guest
            (Sdevice.Pmem.create ()) );
      ( "SPDK-NVMe",
        fun costs _ -> Sdevice.Access.spdk_nvme costs (Sdevice.Nvme.create ()) );
      ( "HOST-NVMe",
        fun costs _ ->
          Sdevice.Access.host_nvme costs ~entry:Sdevice.Access.From_guest
            (Sdevice.Nvme.create ()) );
    ]
  in
  let rows =
    List.map
      (fun (name, access) ->
        let eng = Sim.Engine.create () in
        let stack = Scenario.make_aquila_access ~frames:4096 ~access () in
        let ctx = stack.Scenario.a_ctx in
        let cycles = ref 0. in
        ignore
          (Sim.Engine.spawn eng ~name:"fig8c" ~core:0 (fun () ->
               Aquila.Context.enter_thread ctx;
               let blob =
                 Blobstore.Store.create_blob stack.Scenario.a_store ~name:"f.dat"
                   ~pages ()
               in
               let file =
                 Aquila.Context.attach_file ctx ~name:"f.dat"
                   ~access:stack.Scenario.a_access
                   ~translate:(Blobstore.Store.translate blob) ~size_pages:pages
               in
               let r1 = Aquila.Context.mmap ctx file ~npages:pages () in
               let measured_region =
                 if name = "Cache-Hit" then begin
                   (* warm the DRAM cache, then remap so every touch is a
                      fault that hits the cache without device I/O *)
                   for p = 0 to pages - 1 do
                     Aquila.Context.touch ctx r1 ~page:p ~write:false
                   done;
                   Aquila.Context.munmap ctx r1;
                   Aquila.Context.mmap ctx file ~npages:pages ()
                 end
                 else r1
               in
               let t0 = Sim.Engine.now_f () in
               for p = 0 to pages - 1 do
                 Aquila.Context.touch ctx measured_region ~page:p ~write:false
               done;
               let t1 = Sim.Engine.now_f () in
               cycles := Int64.to_float (Int64.sub t1 t0) /. float_of_int pages));
        Sim.Engine.run eng;
        (name, !cycles))
      methods
  in
  Stats.Table_fmt.print_table
    ~title:"Figure 8(c): storage access methods in Aquila (cycles per fault)"
    ~header:[ "method"; "cycles/fault"; "latency" ]
    (List.map
       (fun (n, c) -> [ n; Stats.Table_fmt.kcycles c; Stats.Table_fmt.usec_of_cycles c ])
       rows);
  (* "the remaining cost, excluding the I/O, remains the same": compare the
     I/O components net of the Cache-Hit base *)
  let base = match List.assoc_opt "Cache-Hit" rows with Some b -> b | None -> 0. in
  (match (List.assoc_opt "DAX-pmem" rows, List.assoc_opt "HOST-pmem" rows) with
  | Some d, Some h ->
      Sim.Sink.printf "paper: HOST-pmem / DAX-pmem I/O overhead = 7.77x; measured: %.2fx\n"
        ((h -. base) /. (d -. base))
  | _ -> ());
  match (List.assoc_opt "SPDK-NVMe" rows, List.assoc_opt "HOST-NVMe" rows) with
  | Some s, Some h ->
      Sim.Sink.printf "paper: HOST-NVMe / SPDK-NVMe = 1.53x; measured: %.2fx (net %.2fx)\n"
        (h /. s) ((h -. base) /. (s -. base))
  | _ -> ()

let _ = psz
