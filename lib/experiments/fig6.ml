(* Figure 6: Ligra BFS with the heap extended over fast storage —
   Linux mmap vs Aquila (pmem / NVMe) vs DRAM-only. *)

let n_vertices = 100_000
let n_edges = 1_000_000

(* On-surface footprint per element.  The graph is scaled down ~1000x from
   the paper's 100M vertices, which would pack ~512 vertices per 4 KiB page
   and hide the fault-dominance of the real workload; a 128 B footprint
   keeps the working-set : cache ratio and the access sparsity (DESIGN.md
   §2). *)
let elem_bytes = 32

(* CSR out + in, parents and two dense bitmaps: ~2.3M elements *)
let heap_pages =
  ((2 * (n_vertices + 1 + n_edges)) + (3 * n_vertices)) * elem_bytes / 4096 + 64

let thread_counts = [ 1; 8; 16 ]

(* caches: paper uses 8 GB and 16 GB against a ~64 GB Ligra heap *)
let frames_small = heap_pages / 8
let frames_large = heap_pages / 4

(* Generated once and shared read-only by every run.  fig6a/b/c may run
   on different domains (--jobs), and a lazy value forced by two domains
   at once raises Lazy.Undefined, so the first force holds a lock. *)
let graph =
  let g = lazy (Ligra.Rmat.generate ~seed:12 ~n:n_vertices ~m:n_edges ())
  and lock = Mutex.create () in
  fun () -> Mutex.protect lock (fun () -> Lazy.force g)

type cfgkind = Dram_only | Mmap_pmem | Mmap_nvme | Aquila_pmem | Aquila_nvme

let cfg_name = function
  | Dram_only -> "DRAM-only"
  | Mmap_pmem -> "mmap/pmem"
  | Mmap_nvme -> "mmap/NVMe"
  | Aquila_pmem -> "Aquila/pmem"
  | Aquila_nvme -> "Aquila/NVMe"

type run_out = {
  seconds : float;
  user_pct : float;
  sys_pct : float;
  idle_pct : float;
}

let run_one ~cfg ~frames ~threads =
  let eng = Sim.Engine.create () in
  let g = graph () in
  let surface_ref = ref None in
  (* surfaces must be created inside a fiber (mmap charges costs) *)
  ignore
    (Sim.Engine.spawn eng ~name:"setup" ~core:0 (fun () ->
         let mapped sys =
           Microbench.enter sys;
           let r = Microbench.make_region sys ~name:"heap" ~pages:heap_pages in
           Ligra.Mem_surface.mapped ~elem_bytes ~pages:heap_pages
             r.Microbench.touch_buf
         in
         let mk_aquila dev =
           mapped (Microbench.Aq (Scenario.make_aquila ~frames ~dev ()))
         in
         let mk_linux dev =
           mapped (Microbench.Lx (Scenario.make_linux ~readahead:1 ~frames ~dev ()))
         in
         surface_ref :=
           Some
             (match cfg with
             | Dram_only -> Ligra.Mem_surface.dram ()
             | Mmap_pmem -> mk_linux Scenario.Pmem
             | Mmap_nvme -> mk_linux Scenario.Nvme
             | Aquila_pmem -> mk_aquila Scenario.Pmem
             | Aquila_nvme -> mk_aquila Scenario.Nvme)));
  Sim.Engine.run eng;
  let surface = Option.get !surface_ref in
  let r = Ligra.Bfs.run ~eng ~graph:g ~surface ~threads ~source:0 () in
  let u, s, i =
    List.fold_left
      (fun (u, s, i) (c : Sim.Engine.ctx) ->
        ( Int64.add u (Int64.of_int c.Sim.Engine.user),
          Int64.add s (Int64.of_int c.Sim.Engine.sys),
          Int64.add i (Int64.of_int c.Sim.Engine.idle) ))
      (0L, 0L, 0L) r.Ligra.Bfs.thread_ctxs
  in
  let tot = Int64.to_float (Int64.add (Int64.add u s) i) in
  let pct x = if tot > 0. then 100. *. Int64.to_float x /. tot else 0. in
  {
    seconds = Int64.to_float r.Ligra.Bfs.elapsed_cycles /. 2.4e9;
    user_pct = pct u;
    sys_pct = pct s;
    idle_pct = pct i;
  }

let run_panel ~frames ~title =
  let cfgs = [ Mmap_pmem; Aquila_pmem; Mmap_nvme; Aquila_nvme; Dram_only ] in
  let cells =
    List.concat_map
      (fun cfg ->
        List.map
          (fun threads -> ((cfg, threads), run_one ~cfg ~frames ~threads))
          thread_counts)
      cfgs
  in
  let rows =
    List.map
      (fun threads ->
        let get cfg = List.assoc (cfg, threads) cells in
        let mp = get Mmap_pmem
        and ap = get Aquila_pmem
        and mn = get Mmap_nvme
        and an = get Aquila_nvme
        and dr = get Dram_only in
        [
          string_of_int threads;
          Stats.Table_fmt.seconds mp.seconds;
          Stats.Table_fmt.seconds ap.seconds;
          Stats.Table_fmt.speedup (mp.seconds /. ap.seconds);
          Stats.Table_fmt.seconds mn.seconds;
          Stats.Table_fmt.seconds an.seconds;
          Stats.Table_fmt.speedup (mn.seconds /. an.seconds);
          Stats.Table_fmt.seconds dr.seconds;
          Stats.Table_fmt.speedup (ap.seconds /. dr.seconds);
        ])
      thread_counts
  in
  Stats.Table_fmt.print_table ~title
    ~header:
      [
        "threads"; "mmap/pmem"; "Aquila/pmem"; "speedup"; "mmap/NVMe"; "Aquila/NVMe";
        "speedup"; "DRAM-only"; "Aq-pmem vs DRAM";
      ]
    rows;
  cells

let run_a () =
  let cells =
    run_panel ~frames:frames_small
      ~title:"Figure 6(a): Ligra BFS execution time, cache = heap/8 (paper: 8GB)"
  in
  Sim.Sink.printf
    "paper: Aquila vs mmap (pmem) 1.56x @1thr, 2.54x @8thr, 4.14x @16thr; gap to \
     DRAM-only closes to 2.8-3.2x\n";
  ignore cells

let run_b () =
  ignore
    (run_panel ~frames:frames_large
       ~title:"Figure 6(b): Ligra BFS execution time, cache = heap/4 (paper: 16GB)");
  Sim.Sink.printf "paper: up to 2.3x over mmap at 16 threads with the larger cache\n"

let run_c () =
  let frames = frames_small and threads = 16 in
  let rows =
    List.map
      (fun cfg ->
        let r = run_one ~cfg ~frames ~threads in
        [
          cfg_name cfg;
          Stats.Table_fmt.pct r.user_pct;
          Stats.Table_fmt.pct r.sys_pct;
          Stats.Table_fmt.pct r.idle_pct;
          Stats.Table_fmt.seconds r.seconds;
        ])
      [ Mmap_pmem; Aquila_pmem; Mmap_nvme; Aquila_nvme; Dram_only ]
  in
  Stats.Table_fmt.print_table
    ~title:"Figure 6(c): Ligra BFS time breakdown (16 threads, small cache)"
    ~header:[ "config"; "user"; "system"; "idle"; "exec time" ]
    rows;
  Sim.Sink.printf
    "paper (pmem): mmap 10.6%% user / 61.8%% system; Aquila 55.9%% user / 43.8%% \
     system, 8.31x lower system+idle time\n"
