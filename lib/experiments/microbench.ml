type sys = Aq of Scenario.aquila_stack | Lx of Scenario.linux_stack

type result = {
  ops : int;
  elapsed_cycles : int64;
  throughput_ops_s : float;
  latency : Stats.Histogram.t;
  ctxs : Sim.Engine.ctx list;
  faults : int;
  evictions : int;
}

type pattern = Uniform | Permutation | Zipf

type region_ops = {
  touch : page:int -> write:bool -> unit;
  touch_buf : page:int -> write:bool -> buf:Sim.Costbuf.t -> unit;
}

(* Create a mapped file on the stack; must run inside a fiber. *)
let make_region sys ~name ~pages =
  match sys with
  | Aq s ->
      let blob =
        Blobstore.Store.create_blob s.Scenario.a_store ~name ~pages ()
      in
      let f =
        Aquila.Context.attach_file s.Scenario.a_ctx ~name
          ~access:s.Scenario.a_access ~translate:(Blobstore.Store.translate blob)
          ~size_pages:pages
      in
      let r = Aquila.Context.mmap s.Scenario.a_ctx f ~npages:pages () in
      {
        touch =
          (fun ~page ~write -> Aquila.Context.touch s.Scenario.a_ctx r ~page ~write);
        touch_buf =
          (fun ~page ~write ~buf ->
            Aquila.Context.touch_buf s.Scenario.a_ctx r ~page ~write ~buf);
      }
  | Lx s ->
      let blob =
        Blobstore.Store.create_blob s.Scenario.l_store ~name ~pages ()
      in
      let f =
        Linux_sim.Mmap_sys.attach_file s.Scenario.l_msys ~name
          ~access:s.Scenario.l_access ~translate:(Blobstore.Store.translate blob)
          ~size_pages:pages
      in
      let r = Linux_sim.Mmap_sys.mmap s.Scenario.l_msys f ~npages:pages () in
      {
        touch =
          (fun ~page ~write ->
            Linux_sim.Mmap_sys.touch s.Scenario.l_msys r ~page ~write);
        touch_buf =
          (fun ~page ~write ~buf ->
            Linux_sim.Mmap_sys.touch_buf s.Scenario.l_msys r ~page ~write ~buf);
      }

let enter sys =
  match sys with
  | Aq s -> Aquila.Context.enter_thread s.Scenario.a_ctx
  | Lx s -> Linux_sim.Mmap_sys.enter_thread s.Scenario.l_msys

let fault_count = function
  | Aq s -> Aquila.Context.faults s.Scenario.a_ctx
  | Lx s -> Linux_sim.Mmap_sys.faults s.Scenario.l_msys

let eviction_count = function
  | Aq s -> Mcache.Dram_cache.evictions (Aquila.Context.cache s.Scenario.a_ctx)
  | Lx s -> Linux_sim.Page_cache.evictions (Linux_sim.Mmap_sys.page_cache s.Scenario.l_msys)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let run ~eng ~sys ~file_pages ~shared ~threads ~ops_per_thread
    ?(write_fraction = 0.0) ?(pattern = Uniform) ?(seed = 7) () =
  if threads <= 0 || file_pages <= 0 then invalid_arg "Microbench.run";
  let hist = Stats.Histogram.create () in
  let shared_region = ref None in
  (* setup fiber: create the shared mapping before workers start *)
  if shared then begin
    ignore
      (Sim.Engine.spawn eng ~name:"mb-setup" ~core:0 (fun () ->
           enter sys;
           shared_region := Some (make_region sys ~name:"shared.dat" ~pages:file_pages)));
    Sim.Engine.run eng
  end;
  let start = Sim.Engine.now eng in
  let ctxs = ref [] in
  for i = 0 to threads - 1 do
    let rng = Sim.Rng.create (seed + (i * 6151)) in
    let ctx =
      Sim.Engine.spawn eng ~name:(Printf.sprintf "mb-%d" i) ~core:(i mod 32)
        (fun () ->
          enter sys;
          let region =
            if shared then Option.get !shared_region
            else
              make_region sys ~name:(Printf.sprintf "private-%d.dat" i)
                ~pages:file_pages
          in
          let next_page =
            match pattern with
            | Uniform ->
                let f () = Sim.Rng.int rng file_pages in
                (f, ops_per_thread)
            | Zipf ->
                let z = Ycsb.Zipfian.zipfian rng ~items:file_pages in
                let f () = Ycsb.Zipfian.next z in
                (f, ops_per_thread)
            | Permutation ->
                let lo, hi =
                  if shared then
                    (i * file_pages / threads, ((i + 1) * file_pages / threads) - 1)
                  else (0, file_pages - 1)
                in
                let perm = Array.init (hi - lo + 1) (fun k -> lo + k) in
                shuffle rng perm;
                let pos = ref 0 in
                let f () =
                  let p = perm.(!pos mod Array.length perm) in
                  incr pos;
                  p
                in
                (f, min ops_per_thread (Array.length perm))
          in
          let draw, nops = next_page in
          for _ = 1 to nops do
            let page = draw () in
            let write = Sim.Rng.float rng < write_fraction in
            let t0 = Sim.Engine.now_f () in
            region.touch ~page ~write;
            let t1 = Sim.Engine.now_f () in
            Stats.Histogram.record hist (Int64.sub t1 t0)
          done)
    in
    ctxs := ctx :: !ctxs
  done;
  Sim.Engine.run eng;
  let elapsed = Int64.sub (Sim.Engine.now eng) start in
  let ops = threads * ops_per_thread in
  let secs = Int64.to_float elapsed /. 2.4e9 in
  {
    ops;
    elapsed_cycles = elapsed;
    throughput_ops_s = (if secs > 0. then float_of_int ops /. secs else 0.);
    latency = hist;
    ctxs = !ctxs;
    faults = fault_count sys;
    evictions = eviction_count sys;
  }
