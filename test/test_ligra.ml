(* Tests for the graph-processing substrate (lib/ligra). *)

let checki = Alcotest.(check int)

(* ---- Graph ---- *)

let csr_construction () =
  let g = Ligra.Graph.of_edge_list ~n:4 [ (0, 1); (0, 2); (1, 3); (3, 0) ] in
  checki "vertices" 4 g.Ligra.Graph.n;
  checki "edges" 4 g.Ligra.Graph.m;
  checki "deg 0" 2 (Ligra.Graph.out_degree g 0);
  checki "deg 2" 0 (Ligra.Graph.out_degree g 2);
  let ns = ref [] in
  Ligra.Graph.iter_neighbors g 0 (fun v -> ns := v :: !ns);
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 2 ] (List.sort compare !ns);
  Alcotest.check_raises "bad vertex" (Invalid_argument "Graph: vertex out of range")
    (fun () -> ignore (Ligra.Graph.of_edge_list ~n:2 [ (0, 5) ]))

let csr_model =
  QCheck.Test.make ~name:"CSR preserves the edge multiset" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun edges ->
      let g = Ligra.Graph.of_edge_list ~n:20 edges in
      let out = ref [] in
      for v = 0 to 19 do
        Ligra.Graph.iter_neighbors g v (fun d -> out := (v, d) :: !out)
      done;
      List.sort compare !out = List.sort compare edges)

(* ---- R-MAT ---- *)

let rmat_shape () =
  let g = Ligra.Rmat.generate ~seed:5 ~n:1000 ~m:10000 () in
  checki "vertices" 1000 g.Ligra.Graph.n;
  checki "edges" 10000 g.Ligra.Graph.m;
  (* R-MAT is skewed: the max degree far exceeds the mean (10) *)
  let maxdeg = ref 0 in
  for v = 0 to 999 do
    maxdeg := max !maxdeg (Ligra.Graph.out_degree g v)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "power-law-ish max degree (%d)" !maxdeg)
    true (!maxdeg > 40)

let rmat_deterministic () =
  let g1 = Ligra.Rmat.generate ~seed:9 ~n:100 ~m:500 () in
  let g2 = Ligra.Rmat.generate ~seed:9 ~n:100 ~m:500 () in
  Alcotest.(check bool) "same offsets" true
    (g1.Ligra.Graph.offsets = g2.Ligra.Graph.offsets);
  Alcotest.(check bool) "same edges" true (g1.Ligra.Graph.edges = g2.Ligra.Graph.edges)

(* ---- Mem_surface ---- *)

let make_aquila_surface ?(elem_bytes = 8) ~heap_pages ~frames () =
  let ctx = Aquila.Context.create (Aquila.Context.default_config ~cache_frames:frames) in
  let pmem =
    Sdevice.Pmem.create
      ~capacity_bytes:(Int64.of_int (heap_pages * Hw.Defs.page_size))
      ()
  in
  let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
  let file =
    Aquila.Context.attach_file ctx ~name:"heap" ~access
      ~translate:(fun p -> if p < heap_pages then Some p else None)
      ~size_pages:heap_pages
  in
  fun () ->
    Aquila.Context.enter_thread ctx;
    let region = Aquila.Context.mmap ctx file ~npages:heap_pages () in
    Ligra.Mem_surface.mapped ~elem_bytes ~pages:heap_pages
      (Aquila.Context.touch_buf ctx region)

let surface_alloc_get_set () =
  let mk = make_aquila_surface ~heap_pages:64 ~frames:32 () in
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let s = mk () in
         let a = Ligra.Mem_surface.alloc s ~len:1000 ~init:(fun i -> i * 3) in
         let buf = Sim.Costbuf.create () in
         checki "init value" 30 (Ligra.Mem_surface.get a ~buf 10);
         Ligra.Mem_surface.set a ~buf 10 99;
         checki "set/get" 99 (Ligra.Mem_surface.get a ~buf 10);
         checki "len" 1000 (Ligra.Mem_surface.len a);
         Sim.Costbuf.charge buf));
  Sim.Engine.run eng;
  Alcotest.(check bool) "mmio accesses cost time" true (Sim.Engine.now eng > 0L)

let surface_exhaustion () =
  let mk = make_aquila_surface ~heap_pages:4 ~frames:32 () in
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let s = mk () in
         ignore (Ligra.Mem_surface.alloc s ~len:1000 ~init:(fun _ -> 0));
         Alcotest.check_raises "heap exhausted"
           (Failure "Mem_surface: mmio heap exhausted") (fun () ->
             ignore (Ligra.Mem_surface.alloc s ~len:2000 ~init:(fun _ -> 0)))));
  Sim.Engine.run eng

let dram_surface_is_free () =
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let s = Ligra.Mem_surface.dram () in
         let a = Ligra.Mem_surface.alloc s ~len:100 ~init:(fun i -> i) in
         let buf = Sim.Costbuf.create () in
         for i = 0 to 99 do
           ignore (Ligra.Mem_surface.get a ~buf i)
         done;
         Alcotest.(check int64) "no mmio cost" 0L (Sim.Costbuf.total buf)));
  Sim.Engine.run eng

(* ---- BFS ---- *)

(* A path graph 0-1-2-...-9 gives known rounds and coverage. *)
let path_graph n =
  Ligra.Graph.of_edge_list ~n
    (List.concat (List.init (n - 1) (fun i -> [ (i, i + 1); (i + 1, i) ])))

let bfs_path_graph () =
  let eng = Sim.Engine.create () in
  let g = path_graph 10 in
  let r =
    Ligra.Bfs.run ~eng ~graph:g ~surface:(Ligra.Mem_surface.dram ()) ~threads:2
      ~source:0 ()
  in
  checki "all reached" 10 r.Ligra.Bfs.visited;
  checki "rounds = diameter + 1" 10 r.Ligra.Bfs.rounds

let bfs_disconnected () =
  let eng = Sim.Engine.create () in
  let g = Ligra.Graph.of_edge_list ~n:6 [ (0, 1); (1, 2); (4, 5) ] in
  let r =
    Ligra.Bfs.run ~eng ~graph:g ~surface:(Ligra.Mem_surface.dram ()) ~threads:1
      ~source:0 ()
  in
  checki "component only" 3 r.Ligra.Bfs.visited

let bfs_agrees_across_surfaces () =
  let g = Ligra.Rmat.generate ~seed:21 ~n:500 ~m:4000 () in
  let run surface_of threads =
    let eng = Sim.Engine.create () in
    let sref = ref None in
    ignore (Sim.Engine.spawn eng ~core:0 (fun () -> sref := Some (surface_of ())));
    Sim.Engine.run eng;
    let r = Ligra.Bfs.run ~eng ~graph:g ~surface:(Option.get !sref) ~threads ~source:0 () in
    (r.Ligra.Bfs.visited, r.Ligra.Bfs.rounds)
  in
  let dram = run (fun () -> Ligra.Mem_surface.dram ()) 1 in
  let aq1 = run (fun () -> (make_aquila_surface ~heap_pages:512 ~frames:128 ()) ()) 1 in
  let aq8 = run (fun () -> (make_aquila_surface ~heap_pages:512 ~frames:128 ()) ()) 8 in
  Alcotest.(check (pair int int)) "dram = aquila" dram aq1;
  Alcotest.(check int) "threads don't change coverage" (fst dram) (fst aq8)

(* BFS over a Linux-mmap and an Aquila heap, each built the way Fig. 6
   builds it and with a cache small enough to evict: both runs' simulated
   time and coverage are pinned.  Aquila's default eviction batch (34
   pages, the full-flush regime's smallest) empties its 24-frame cache. *)
let bfs_pinned_on_mmio () =
  let g = Ligra.Rmat.generate ~seed:21 ~n:500 ~m:4000 () in
  let heap_pages = 96 and frames = 24 in
  let run surface_of =
    let eng = Sim.Engine.create () in
    let sref = ref None in
    ignore (Sim.Engine.spawn eng ~core:0 (fun () -> sref := Some (surface_of ())));
    Sim.Engine.run eng;
    let r =
      Ligra.Bfs.run ~eng ~graph:g ~surface:(Option.get !sref) ~threads:4 ~source:0 ()
    in
    (r.Ligra.Bfs.elapsed_cycles, r.Ligra.Bfs.visited)
  in
  let mapped sys =
    Experiments.Microbench.enter sys;
    let r = Experiments.Microbench.make_region sys ~name:"heap" ~pages:heap_pages in
    Ligra.Mem_surface.mapped ~elem_bytes:32 ~pages:heap_pages
      r.Experiments.Microbench.touch_buf
  in
  let linux () =
    mapped (Lx Experiments.Scenario.(make_linux ~readahead:1 ~frames ~dev:Pmem ()))
  and aquila () =
    mapped (Aq Experiments.Scenario.(make_aquila ~frames ~dev:Pmem ()))
  in
  let pinned = Alcotest.(pair int64 int) in
  Alcotest.check pinned "linux mmap" (1041647L, 362) (run linux);
  Alcotest.check pinned "aquila" (2718285L, 362) (run aquila)

let bfs_dense_switch_runs () =
  (* a star graph forces a huge frontier after round 1: exercises the
     bottom-up (dense) path *)
  let n = 2000 in
  let g =
    Ligra.Graph.of_edge_list ~n
      (List.concat (List.init (n - 1) (fun i -> [ (0, i + 1); (i + 1, 0) ])))
  in
  let eng = Sim.Engine.create () in
  let r =
    Ligra.Bfs.run ~eng ~graph:g ~surface:(Ligra.Mem_surface.dram ()) ~threads:4
      ~source:1 ()
  in
  checki "all reached via hub" n r.Ligra.Bfs.visited

let () =
  Alcotest.run "ligra"
    [
      ( "graph",
        [
          Alcotest.test_case "csr" `Quick csr_construction;
          QCheck_alcotest.to_alcotest csr_model;
        ] );
      ( "rmat",
        [
          Alcotest.test_case "shape" `Quick rmat_shape;
          Alcotest.test_case "deterministic" `Quick rmat_deterministic;
        ] );
      ( "mem surface",
        [
          Alcotest.test_case "alloc/get/set" `Quick surface_alloc_get_set;
          Alcotest.test_case "exhaustion" `Quick surface_exhaustion;
          Alcotest.test_case "dram is free" `Quick dram_surface_is_free;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path graph" `Quick bfs_path_graph;
          Alcotest.test_case "disconnected" `Quick bfs_disconnected;
          Alcotest.test_case "surfaces agree" `Quick bfs_agrees_across_surfaces;
          Alcotest.test_case "pinned on both mmio stacks" `Quick bfs_pinned_on_mmio;
          Alcotest.test_case "dense switch" `Quick bfs_dense_switch_runs;
        ] );
    ]
