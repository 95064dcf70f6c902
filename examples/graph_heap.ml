(* Extending the application heap over fast storage: the paper's second
   motivating workload (Section 6.2).

   Generates an R-MAT graph, then runs Ligra-style BFS three ways: with
   the heap in DRAM (malloc/free), with the heap over a Linux mmap-ed
   file, and with the heap over an Aquila mmio region — only the
   allocation layer changes, exactly the porting effort the paper
   describes for Ligra.

   Run with: dune exec examples/graph_heap.exe *)

let n = 20_000
let m = 200_000
let heap_pages = 4096
let frames = 512
let threads = 8

let bfs_on surface_of =
  let eng = Sim.Engine.create () in
  let surface = ref None in
  ignore (Sim.Engine.spawn eng ~core:0 (fun () -> surface := Some (surface_of ())));
  Sim.Engine.run eng;
  let g = Ligra.Rmat.generate ~seed:3 ~n ~m () in
  let r = Ligra.Bfs.run ~eng ~graph:g ~surface:(Option.get !surface) ~threads ~source:0 () in
  (Int64.to_float r.Ligra.Bfs.elapsed_cycles /. 2.4e6, r.Ligra.Bfs.visited, r.Ligra.Bfs.rounds)

let () =
  let dram () = Ligra.Mem_surface.dram () in
  (* the only porting effort: map the heap, hand Ligra its page touch *)
  let mapped sys =
    Experiments.Microbench.enter sys;
    let r = Experiments.Microbench.make_region sys ~name:"heap" ~pages:heap_pages in
    Ligra.Mem_surface.mapped ~elem_bytes:32 ~pages:heap_pages
      r.Experiments.Microbench.touch_buf
  in
  let aquila () =
    mapped (Aq Experiments.Scenario.(make_aquila ~frames ~dev:Pmem ()))
  and linux () =
    mapped (Lx Experiments.Scenario.(make_linux ~readahead:1 ~frames ~dev:Pmem ()))
  in
  Printf.printf "BFS over R-MAT graph (%d vertices, %d edges), %d threads:\n" n m threads;
  let report name (ms, visited, rounds) =
    Printf.printf "%-24s %8.2f ms   (%d vertices reached in %d rounds)\n" name ms
      visited rounds
  in
  let d = bfs_on dram in
  let l = bfs_on linux in
  let a = bfs_on aquila in
  report "heap in DRAM" d;
  report "heap over Linux mmap" l;
  report "heap over Aquila" a;
  let t (ms, _, _) = ms in
  Printf.printf "Aquila vs mmap: %.2fx faster; slowdown vs DRAM: %.2fx\n"
    (t l /. t a) (t a /. t d)
