(* Ablation benches for the design choices DESIGN.md §5 calls out, and
   sensitivity sweeps beyond the paper's fixed configurations. *)

let dataset_pages = 25600
let frames = 2048
let threads = 16

let micro ~tweak ~title_row =
  let eng = Sim.Engine.create () in
  let sys =
    Microbench.Aq (Scenario.make_aquila ~tweak ~frames ~dev:Scenario.Pmem ())
  in
  let r =
    Microbench.run ~eng ~sys ~file_pages:dataset_pages ~shared:true
      ~threads ~ops_per_thread:3000 ~write_fraction:0.3 ()
  in
  [
    title_row;
    Stats.Table_fmt.ops_per_sec r.Microbench.throughput_ops_s;
    string_of_int r.Microbench.evictions;
    Printf.sprintf "%d" (Hw.Ipi.shootdowns_sent ());
  ]

let tlb_and_batching () =
  Hw.Ipi.reset_counters ();
  let base = micro ~tweak:Fun.id ~title_row:"default (batched, vmexit-send IPI)" in
  Hw.Ipi.reset_counters ();
  let posted =
    micro
      ~tweak:(fun c -> { c with Mcache.Dram_cache.ipi_mode = Hw.Ipi.Posted })
      ~title_row:"posted IPIs (no send-side vmexit)"
  in
  Hw.Ipi.reset_counters ();
  let unbatched =
    micro
      ~tweak:(fun c -> { c with Mcache.Dram_cache.evict_batch = 1 })
      ~title_row:"per-page eviction + shootdown (batch=1)"
  in
  Hw.Ipi.reset_counters ();
  let no_freelist_batch =
    micro
      ~tweak:(fun c ->
        { c with Mcache.Dram_cache.move_batch = 1; core_queue_limit = 1 })
      ~title_row:"freelist without batching (move=1)"
  in
  Stats.Table_fmt.print_table
    ~title:
      "Ablation: TLB shootdown and batching (microbenchmark, 16 threads, \
       out-of-memory, 30% writes)"
    ~header:[ "configuration"; "throughput"; "evictions"; "shootdown batches" ]
    [ base; posted; unbatched; no_freelist_batch ]

let memcpy () =
  let run simd =
    let eng = Sim.Engine.create () in
    let stack =
      Scenario.make_aquila_access ~frames:4096
        ~access:(fun costs _ ->
          Sdevice.Access.dax_pmem costs ~simd (Sdevice.Pmem.create ()))
        ()
    in
    let sys = Microbench.Aq stack in
    let r =
      Microbench.run ~eng ~sys ~file_pages:3000 ~shared:true ~threads:1
        ~ops_per_thread:3000 ~pattern:Microbench.Permutation ()
    in
    Int64.to_float r.Microbench.elapsed_cycles
    /. float_of_int (max 1 r.Microbench.faults)
  in
  let simd = run true and scalar = run false in
  Stats.Table_fmt.print_table
    ~title:"Ablation: AVX2 streaming memcpy vs scalar (DAX-pmem fault cost)"
    ~header:[ "copy"; "cycles/fault"; "" ]
    [
      [ "AVX2 + FPU save/restore"; Stats.Table_fmt.kcycles simd; "" ];
      [ "scalar (kernel-style)"; Stats.Table_fmt.kcycles scalar; "" ];
    ];
  Sim.Sink.printf "paper: 1200 vs 2400 cycles for the 4KB copy itself (2x)\n"

let readahead () =
  (* sequential scan over a mapped file on NVMe, with and without the
     madvise(SEQUENTIAL) readahead window *)
  let run advice =
    let eng = Sim.Engine.create () in
    let s = Scenario.make_aquila ~frames:4096 ~dev:Scenario.Nvme () in
    let pages = 3000 in
    let cycles = ref 0L in
    ignore
      (Sim.Engine.spawn eng ~core:0 (fun () ->
           Aquila.Context.enter_thread s.Scenario.a_ctx;
           let blob =
             Blobstore.Store.create_blob s.Scenario.a_store ~name:"seq"
               ~pages ()
           in
           let f =
             Aquila.Context.attach_file s.Scenario.a_ctx ~name:"seq"
               ~access:s.Scenario.a_access
               ~translate:(fun p ->
                 if p < pages then Some (Blobstore.Store.device_page blob p) else None)
               ~size_pages:pages
           in
           let r = Aquila.Context.mmap s.Scenario.a_ctx f ~npages:pages () in
           Aquila.Context.madvise s.Scenario.a_ctx r advice;
           let t0 = Sim.Engine.now_f () in
           for p = 0 to pages - 1 do
             Aquila.Context.touch s.Scenario.a_ctx r ~page:p ~write:false
           done;
           cycles := Int64.sub (Sim.Engine.now_f ()) t0));
    Sim.Engine.run eng;
    Int64.to_float !cycles /. 2.4e6
  in
  let norm = run Aquila.Vma.Random and seq = run Aquila.Vma.Sequential in
  Stats.Table_fmt.print_table
    ~title:"Ablation: madvise-driven readahead, sequential scan of 3000 pages (NVMe)"
    ~header:[ "advice"; "scan time"; "" ]
    [
      [ "MADV_RANDOM (no readahead)"; Printf.sprintf "%.2f ms" norm; "" ];
      [ "MADV_SEQUENTIAL (32-page window)"; Printf.sprintf "%.2f ms" seq; "" ];
    ]

(* Extension beyond the paper (its Section 3.3 future work): io_uring as
   the device-access method for the mmio miss path. *)
let uring () =
  let cost access_of =
    let eng = Sim.Engine.create () in
    let stack = Scenario.make_aquila_access ~frames:4096 ~access:access_of () in
    let sys = Microbench.Aq stack in
    let r =
      Microbench.run ~eng ~sys ~file_pages:3000 ~shared:true ~threads:1
        ~ops_per_thread:3000 ~pattern:Microbench.Permutation ()
    in
    Int64.to_float r.Microbench.elapsed_cycles
    /. float_of_int (max 1 r.Microbench.faults)
  in
  let spdk = cost (fun c _ -> Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let uring =
    cost (fun c _ ->
        Sdevice.Access.uring_nvme c ~entry:Sdevice.Access.From_guest
          (Sdevice.Nvme.create ()))
  in
  let host =
    cost (fun c _ ->
        Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_guest
          (Sdevice.Nvme.create ()))
  in
  Stats.Table_fmt.print_table
    ~title:
      "Extension: io_uring as the miss-path access method (NVMe, cycles/fault;        paper future work)"
    ~header:[ "method"; "cycles/fault"; "vs SPDK" ]
    [
      [ "SPDK (kernel bypass)"; Stats.Table_fmt.kcycles spdk; "1.00x" ];
      [ "io_uring (batched syscalls)"; Stats.Table_fmt.kcycles uring;
        Stats.Table_fmt.speedup (uring /. spdk) ];
      [ "sync host I/O (vmcall each)"; Stats.Table_fmt.kcycles host;
        Stats.Table_fmt.speedup (host /. spdk) ];
    ]

(* ---- sweeps: how the Aquila-vs-Linux gap moves with cache size, and
   how Aquila's eviction batch behaves across its range ---- *)

let sweep_pages = 12800

let cache_size_sweep () =
  (* out-of-memory random reads, 16 threads, shared file; sweep the
     cache:dataset ratio *)
  let run aquila frames =
    let eng = Sim.Engine.create () in
    let sys =
      if aquila then
        Microbench.Aq (Scenario.make_aquila ~frames ~dev:Scenario.Pmem ())
      else
        Microbench.Lx
          (Scenario.make_linux ~readahead:1 ~frames ~dev:Scenario.Pmem ())
    in
    (Microbench.run ~eng ~sys ~file_pages:sweep_pages ~shared:true
       ~threads:16 ~ops_per_thread:2500 ())
      .Microbench.throughput_ops_s
  in
  let rows =
    List.map
      (fun denom ->
        let frames = sweep_pages / denom in
        let lx = run false frames and aq = run true frames in
        [
          Printf.sprintf "1/%d" denom;
          Stats.Table_fmt.ops_per_sec lx;
          Stats.Table_fmt.ops_per_sec aq;
          Stats.Table_fmt.speedup (aq /. lx);
        ])
      [ 16; 8; 4; 2 ]
  in
  Stats.Table_fmt.print_table
    ~title:
      "Sweep: cache size vs dataset (random reads, 16 threads, shared file, pmem)"
    ~header:[ "cache:dataset"; "Linux mmap"; "Aquila"; "speedup" ]
    rows

let evict_batch_sweep () =
  let run batch =
    let eng = Sim.Engine.create () in
    let sys =
      Microbench.Aq
        (Scenario.make_aquila
           ~tweak:(fun c -> { c with Mcache.Dram_cache.evict_batch = batch })
           ~frames:2048 ~dev:Scenario.Pmem ())
    in
    (Microbench.run ~eng ~sys ~file_pages:sweep_pages ~shared:true
       ~threads:16 ~ops_per_thread:2500 ~write_fraction:0.3 ())
      .Microbench.throughput_ops_s
  in
  let rows =
    List.map
      (fun b -> [ string_of_int b; Stats.Table_fmt.ops_per_sec (run b) ])
      [ 1; 8; 32; 128; 512 ]
  in
  Stats.Table_fmt.print_table
    ~title:
      "Sweep: eviction/shootdown batch size (cache 2048 frames; too-large \
       batches degrade victim quality, too-small ones lose amortization)"
    ~header:[ "batch"; "throughput" ] rows
