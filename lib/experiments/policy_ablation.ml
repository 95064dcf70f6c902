type workload = Zipf_mix | Scan_mix

let workload_name = function Zipf_mix -> "zipf" | Scan_mix -> "scan"

type row = {
  workload : workload;
  policy : Mcache.Policy.kind;
  ops : int;
  hits : int;
  misses : int;
  hit_rate : float;
  evictions : int;
  wb_pages : int;
  vtime_per_op : float;
  events : int;
  wall_s : float;
}

let with_policy policy c = { c with Mcache.Dram_cache.policy }

let finish ~workload ~policy ~ops ~eng ~start ~wall0 cache =
  let hits = Mcache.Dram_cache.fault_hits cache in
  let misses = Mcache.Dram_cache.misses cache in
  let elapsed = Int64.sub (Sim.Engine.now eng) start in
  {
    workload;
    policy;
    ops;
    hits;
    misses;
    (* access-level: the share of touches served from DRAM (mapped pages
       never reach the cache at all; only misses pay a device read) *)
    hit_rate =
      (if ops = 0 then 0.
       else float_of_int (ops - misses) /. float_of_int ops);
    evictions = Mcache.Dram_cache.evictions cache;
    wb_pages = Mcache.Dram_cache.writeback_pages cache;
    vtime_per_op =
      (if ops = 0 then 0. else Int64.to_float elapsed /. float_of_int ops);
    events = Sim.Engine.events eng;
    wall_s = Sys.time () -. wall0;
  }

(* Fig5-style pressure: a zipfian hot set over a file 4x the cache, some
   writes — replacement quality decides the hit rate. *)
let run_zipf ~frames ~threads ~ops_per_thread ~policy () =
  let wall0 = Sys.time () in
  let eng = Sim.Engine.create () in
  let stack =
    Scenario.make_aquila ~tweak:(with_policy policy) ~frames ~dev:Scenario.Pmem
      ()
  in
  let sys = Microbench.Aq stack in
  let start = Sim.Engine.now eng in
  let r =
    Microbench.run ~eng ~sys ~file_pages:(4 * frames) ~shared:true ~threads
      ~ops_per_thread ~write_fraction:0.2 ~pattern:Microbench.Zipf ()
  in
  finish ~workload:Zipf_mix ~policy ~ops:r.Microbench.ops ~eng ~start ~wall0
    (Aquila.Context.cache stack.Scenario.a_ctx)

(* The anti-LRU adversary: threads hammer a zipfian hot set that fits in
   half the cache, but every [scan_every] ops burst through a cache-sized
   run of cold pages exactly once.  Recency-only policies (strict LRU,
   and CLOCK to a lesser degree) let the one-shot scan flush the hot set;
   2Q's probationary queue is built to shrug it off. *)
let run_scan ~frames ~threads ~ops_per_thread ~policy () =
  let wall0 = Sys.time () in
  let eng = Sim.Engine.create () in
  let stack =
    Scenario.make_aquila ~tweak:(with_policy policy) ~frames ~dev:Scenario.Pmem
      ()
  in
  let sys = Microbench.Aq stack in
  let file_pages = 8 * frames in
  let hot_pages = max 1 (frames / 2) in
  let scan_len = frames in
  let cold_span = max 1 (file_pages - hot_pages) in
  let scan_every = 200 in
  let region = ref None in
  ignore
    (Sim.Engine.spawn eng ~name:"pa-setup" ~core:0 (fun () ->
         Microbench.enter sys;
         region :=
           Some (Microbench.make_region sys ~name:"scanmix.dat" ~pages:file_pages)));
  Sim.Engine.run eng;
  let start = Sim.Engine.now eng in
  let per_thread_ops = Array.make threads 0 in
  for i = 0 to threads - 1 do
    ignore
      (Sim.Engine.spawn eng ~name:(Printf.sprintf "pa-%d" i) ~core:(i mod 32)
         (fun () ->
           Microbench.enter sys;
           let r = Option.get !region in
           let rng = Sim.Rng.create (0x5ca + (i * 7919)) in
           let z = Ycsb.Zipfian.zipfian rng ~items:hot_pages in
           let scan_cursor = ref 0 in
           let ops_done = ref 0 in
           while !ops_done < ops_per_thread do
             incr ops_done;
             if !ops_done mod scan_every = 0 then begin
               for k = 0 to scan_len - 1 do
                 let page = hot_pages + ((!scan_cursor + k) mod cold_span) in
                 r.Microbench.touch ~page ~write:false;
                 incr ops_done
               done;
               scan_cursor := (!scan_cursor + scan_len) mod cold_span
             end
             else begin
               let page = Ycsb.Zipfian.next z in
               let write = Sim.Rng.float rng < 0.2 in
               r.Microbench.touch ~page ~write
             end
           done;
           per_thread_ops.(i) <- !ops_done))
  done;
  Sim.Engine.run eng;
  let ops = Array.fold_left ( + ) 0 per_thread_ops in
  finish ~workload:Scan_mix ~policy ~ops ~eng ~start ~wall0
    (Aquila.Context.cache stack.Scenario.a_ctx)

let run_one ?(frames = 1024) ?(threads = 8) ?(ops_per_thread = 4000) ~workload
    ~policy () =
  match workload with
  | Zipf_mix -> run_zipf ~frames ~threads ~ops_per_thread ~policy ()
  | Scan_mix -> run_scan ~frames ~threads ~ops_per_thread ~policy ()

let sweep ?frames ?threads ?ops_per_thread
    ?(policies = Mcache.Policy.all_kinds) () =
  List.concat_map
    (fun workload ->
      List.map
        (fun policy ->
          run_one ?frames ?threads ?ops_per_thread ~workload ~policy ())
        policies)
    [ Zipf_mix; Scan_mix ]

let print_rows rows =
  Stats.Table_fmt.print_table
    ~title:
      "Ablation: replacement policies (zipf: fig5-style 4x-cache pressure; \
       scan: hot set + one-shot cold scans)"
    ~header:
      [
        "workload"; "policy"; "ops"; "hit rate"; "misses"; "evictions";
        "wb pages"; "vcycles/op";
      ]
    (List.map
       (fun r ->
         [
           workload_name r.workload;
           Mcache.Policy.kind_to_string r.policy;
           string_of_int r.ops;
           Printf.sprintf "%.2f%%" (100. *. r.hit_rate);
           string_of_int r.misses;
           string_of_int r.evictions;
           string_of_int r.wb_pages;
           Printf.sprintf "%.0f" r.vtime_per_op;
         ])
       rows)

(* Dotted keys so the perf gate needs only a number parser.
   Wall-clock-derived keys end in ".wall", which no gate rule names:
   they are real but noisy on shared runners. *)
let leaves rows =
  List.concat_map
    (fun r ->
      let p key =
        Printf.sprintf "%s.%s.%s" (workload_name r.workload)
          (Mcache.Policy.kind_to_string r.policy)
          key
      in
      [
        (p "hit_rate", Printf.sprintf "%.6f" r.hit_rate);
        (p "misses", string_of_int r.misses);
        (p "evictions", string_of_int r.evictions);
        (p "wb_pages", string_of_int r.wb_pages);
        (p "vtime_per_op", Printf.sprintf "%.3f" r.vtime_per_op);
        ( p "events_per_sec.wall",
          Printf.sprintf "%.1f"
            (if r.wall_s > 0. then float_of_int r.events /. r.wall_s else 0.)
        );
        (p "seconds.wall", Printf.sprintf "%.3f" r.wall_s);
      ])
    rows

let run () = print_rows (sweep ())
