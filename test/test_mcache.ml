(* Tests for Aquila's DRAM cache stack (lib/mcache). *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)

(* ---- Pagekey ---- *)

let pagekey_roundtrip =
  QCheck.Test.make ~name:"pagekey pack/unpack roundtrip" ~count:500
    QCheck.(pair (int_bound 100000) (int_bound 1000000))
    (fun (file, page) ->
      let k = Mcache.Pagekey.make ~file ~page in
      Mcache.Pagekey.file_of k = file && Mcache.Pagekey.page_of k = page)

let pagekey_orders_by_file_then_page () =
  let k1 = Mcache.Pagekey.make ~file:1 ~page:999 in
  let k2 = Mcache.Pagekey.make ~file:2 ~page:0 in
  let k3 = Mcache.Pagekey.make ~file:2 ~page:1 in
  Alcotest.(check bool) "file major" true (k1 < k2);
  Alcotest.(check bool) "page minor" true (k2 < k3)

let pagekey_bounds () =
  Alcotest.check_raises "file too large"
    (Invalid_argument "Pagekey.make: file id out of range") (fun () ->
      ignore (Mcache.Pagekey.make ~file:(1 lsl 27) ~page:0))

(* ---- Freelist ---- *)

let freelist_fallback () =
  let fl = Mcache.Freelist.create c Hw.Topology.default () in
  Mcache.Freelist.add_frame fl ~node:0 42;
  let f, _ = Mcache.Freelist.alloc fl ~core:16 (* node 1: remote steal *) in
  Alcotest.(check (option int)) "remote fallback" (Some 42) f;
  let none, _ = Mcache.Freelist.alloc fl ~core:0 in
  Alcotest.(check (option int)) "exhausted" None none;
  checki "count" 0 (Mcache.Freelist.free_count fl)

let freelist_free_and_spill () =
  let fl =
    Mcache.Freelist.create c Hw.Topology.default ~core_queue_limit:4 ~move_batch:4 ()
  in
  for i = 0 to 9 do
    ignore (Mcache.Freelist.free fl ~core:0 i)
  done;
  checki "all tracked" 10 (Mcache.Freelist.free_count fl);
  (* spills went to the node queue (8 frames); 2 stay in core 0's private
     queue, which a sibling core cannot steal (per-core level is private) *)
  let drain core =
    let got = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match Mcache.Freelist.alloc fl ~core with
      | Some _, _ -> incr got
      | None, _ -> continue_ := false
    done;
    !got
  in
  checki "sibling recovers spilled frames" 8 (drain 1);
  checki "owner keeps its private queue" 2 (drain 0)

let freelist_refills_batched () =
  let fl = Mcache.Freelist.create c Hw.Topology.default ~move_batch:8 () in
  for i = 0 to 31 do
    Mcache.Freelist.add_frame fl ~node:0 i
  done;
  let op = c.Hw.Costs.freelist_op in
  (* 16 allocs at batch 8 -> only 2 refills, each one queue transfer (two
     more freelist ops) on the alloc that finds the core's queue empty *)
  for i = 0 to 15 do
    let frame, cost = Mcache.Freelist.alloc fl ~core:0 in
    Alcotest.(check bool) "got a frame" true (frame <> None);
    Alcotest.(check int64)
      (Printf.sprintf "alloc %d cost" i)
      (if i mod 8 = 0 then Int64.mul 3L op else op)
      cost
  done

(* ---- Dirty set ---- *)

let dirty_sorted_drain () =
  let ds = Mcache.Dirty_set.create c ~cores:4 in
  let key file page = Mcache.Pagekey.make ~file ~page in
  ignore (Mcache.Dirty_set.add ds ~core:0 ~key:(key 1 30) ~frame:0);
  ignore (Mcache.Dirty_set.add ds ~core:1 ~key:(key 1 10) ~frame:1);
  ignore (Mcache.Dirty_set.add ds ~core:2 ~key:(key 1 20) ~frame:2);
  ignore (Mcache.Dirty_set.add ds ~core:3 ~key:(key 2 5) ~frame:3);
  checki "total" 4 (Mcache.Dirty_set.total ds);
  let entries, _ = Mcache.Dirty_set.drain_sorted ds () in
  Alcotest.(check (list int)) "ascending device order"
    [ key 1 10; key 1 20; key 1 30; key 2 5 ]
    (List.map fst entries);
  checki "drained" 0 (Mcache.Dirty_set.total ds)

let dirty_file_filter_and_limit () =
  let ds = Mcache.Dirty_set.create c ~cores:2 in
  let key file page = Mcache.Pagekey.make ~file ~page in
  for p = 0 to 9 do
    ignore (Mcache.Dirty_set.add ds ~core:(p mod 2) ~key:(key 1 p) ~frame:p)
  done;
  ignore (Mcache.Dirty_set.add ds ~core:0 ~key:(key 2 0) ~frame:99);
  let only_f1, _ = Mcache.Dirty_set.drain_sorted ds ~file:1 ~limit:4 () in
  checki "limited" 4 (List.length only_f1);
  Alcotest.(check bool) "all file 1" true
    (List.for_all (fun (k, _) -> Mcache.Pagekey.file_of k = 1) only_f1);
  (* the rest (6 of file 1 + 1 of file 2) is still tracked *)
  checki "remainder" 7 (Mcache.Dirty_set.total ds)

let dirty_idempotent_add () =
  let ds = Mcache.Dirty_set.create c ~cores:1 in
  let k = Mcache.Pagekey.make ~file:1 ~page:1 in
  ignore (Mcache.Dirty_set.add ds ~core:0 ~key:k ~frame:0);
  ignore (Mcache.Dirty_set.add ds ~core:0 ~key:k ~frame:0);
  checki "counted once" 1 (Mcache.Dirty_set.total ds)

(* Random adds, removes and drains over three cores against a list model.
   A key is dirty on one core at a time, as a cache frame is, so an add of
   a key that another core holds is skipped.  Every cost is [rb_op] times
   the depth of a balanced tree of the core's size before the operation:
   1 below size 2, else floor(log2 size) + 1; a drain pays that for each
   entry it takes, one at a time, at the core that holds it.  A drain takes
   only the [limit] smallest matching keys and leaves the rest on their
   cores, which the final per-core removals check. *)
type dirty_op =
  | D_add of int * Mcache.Pagekey.t * int
  | D_remove of int * Mcache.Pagekey.t
  | D_drain of int option * int option

let dirty_set_matches_model =
  let cores = 3 in
  let key_gen =
    QCheck.Gen.(
      map2
        (fun file page -> Mcache.Pagekey.make ~file ~page)
        (int_range 1 2) (int_bound 15))
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun core k f -> D_add (core, k, f))
              (int_bound (cores - 1))
              key_gen (int_bound 99) );
          (2, map2 (fun core k -> D_remove (core, k)) (int_bound (cores - 1)) key_gen);
          ( 1,
            map2
              (fun file limit -> D_drain (file, limit))
              (opt (int_range 1 2))
              (opt (int_bound 8)) );
        ])
  in
  let key_s k =
    Printf.sprintf "%d:%d" (Mcache.Pagekey.file_of k) (Mcache.Pagekey.page_of k)
  in
  let opt_s = function None -> "-" | Some n -> string_of_int n in
  let print_op = function
    | D_add (core, k, f) -> Printf.sprintf "add %d %s %d" core (key_s k) f
    | D_remove (core, k) -> Printf.sprintf "remove %d %s" core (key_s k)
    | D_drain (file, limit) ->
        Printf.sprintf "drain file %s limit %s" (opt_s file) (opt_s limit)
  in
  let cost size =
    let rec depth acc n = if n < 2 then acc else depth (acc + 1) (n / 2) in
    Int64.mul c.Hw.Costs.rb_op (Int64.of_int (depth 1 size))
  in
  QCheck.Test.make ~name:"dirty set matches a list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let ds = Mcache.Dirty_set.create c ~cores in
      let model = Array.make cores [] in
      let check_cost what got expect =
        if got <> expect then
          QCheck.Test.fail_reportf "%s cost %Ld, expected %Ld" what got expect
      in
      let check_total () =
        let size = Array.fold_left (fun acc l -> acc + List.length l) 0 model in
        if Mcache.Dirty_set.total ds <> size then
          QCheck.Test.fail_reportf "total %d, model %d" (Mcache.Dirty_set.total ds) size
      in
      List.iter
        (fun op ->
          (match op with
          | D_add (core, k, f) ->
              let elsewhere = ref false in
              Array.iteri
                (fun c' l -> if c' <> core && List.mem_assoc k l then elsewhere := true)
                model;
              if not !elsewhere then begin
                check_cost (print_op op)
                  (Mcache.Dirty_set.add ds ~core ~key:k ~frame:f)
                  (cost (List.length model.(core)));
                model.(core) <- (k, f) :: List.remove_assoc k model.(core)
              end
          | D_remove (core, k) ->
              check_cost (print_op op)
                (Mcache.Dirty_set.remove ds ~core ~key:k)
                (cost (List.length model.(core)));
              model.(core) <- List.remove_assoc k model.(core)
          | D_drain (file, limit) ->
              let keep (k, _) =
                match file with None -> true | Some f -> Mcache.Pagekey.file_of k = f
              in
              let n = Option.value limit ~default:max_int in
              let expect =
                Array.to_list model
                |> List.concat_map (List.filter keep)
                |> List.sort compare
                |> List.filteri (fun i _ -> i < n)
              in
              let expect_cost = ref 0L in
              Array.iteri
                (fun core l ->
                  let mine, rest = List.partition (fun e -> List.mem e expect) l in
                  List.iteri
                    (fun i _ ->
                      expect_cost := Int64.add !expect_cost (cost (List.length l - i)))
                    mine;
                  model.(core) <- rest)
                model;
              let got, got_cost = Mcache.Dirty_set.drain_sorted ds ?file ?limit () in
              let rec ascending = function
                | (a, _) :: ((b, _) :: _ as tl) -> a < b && ascending tl
                | _ -> true
              in
              if not (ascending got) then
                QCheck.Test.fail_reportf "%s: keys not ascending" (print_op op);
              if got <> expect then
                QCheck.Test.fail_reportf "%s: drained %d entries, expected %d"
                  (print_op op) (List.length got) (List.length expect);
              check_cost (print_op op) got_cost !expect_cost);
          check_total ())
        ops;
      (* each model entry is on the core the model says: removing it there
         finds it *)
      Array.iteri
        (fun core l ->
          List.iteri
            (fun i (k, _) ->
              let before = Mcache.Dirty_set.total ds in
              check_cost "final remove"
                (Mcache.Dirty_set.remove ds ~core ~key:k)
                (cost (List.length l - i));
              if Mcache.Dirty_set.total ds <> before - 1 then
                QCheck.Test.fail_reportf "%s not on core %d" (key_s k) core)
            l)
        model;
      Mcache.Dirty_set.total ds = 0)

(* ---- Dram cache ---- *)

type rig = {
  cache : Mcache.Dram_cache.t;
  pt : Hw.Page_table.t;
  pmem : Sdevice.Pmem.t;
}

let make_rig ?(frames = 32) ?tweak ?(file_pages = 256) () =
  let machine = Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  let cfg = Mcache.Dram_cache.default_config ~frames in
  let cfg = match tweak with Some f -> f cfg | None -> cfg in
  let cache = Mcache.Dram_cache.create ~costs:c ~machine ~page_table:pt cfg in
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access = Sdevice.Access.dax_pmem c pmem in
  Mcache.Dram_cache.register_file cache ~file_id:1 ~access
    ~translate:(fun p -> if p < file_pages then Some p else None);
  Mcache.Dram_cache.set_shoot_cores cache [ 0; 1 ];
  { cache; pt; pmem }

(* The frame [vpn] maps; fails the test if it maps none. *)
let mapped_pfn pt ~vpn =
  let pfn = Hw.Page_table.pfn pt ~vpn in
  if pfn = Hw.Page_table.no_frame then Alcotest.failf "vpn %d unmapped" vpn;
  pfn

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng

let key p = Mcache.Pagekey.make ~file:1 ~page:p

let fault_miss_then_hit () =
  let r = make_rig () in
  in_sim (fun () ->
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 5) ~vpn:100 ~write:false ();
      checki "one miss" 1 (Mcache.Dram_cache.misses r.cache);
      Alcotest.(check bool) "resident" true
        (Mcache.Dram_cache.is_resident r.cache ~key:(key 5));
      (* the PTE is installed read-only *)
      Alcotest.(check bool) "pte present" true
        (Hw.Page_table.pfn r.pt ~vpn:100 <> Hw.Page_table.no_frame);
      Alcotest.(check bool) "read-only" false (Hw.Page_table.writable r.pt ~vpn:100);
      (* a second fault (e.g. after remap) is a fault-hit: no new I/O *)
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 5) ~vpn:101 ~write:false ();
      checki "still one miss" 1 (Mcache.Dram_cache.misses r.cache);
      checki "one fault hit" 1 (Mcache.Dram_cache.fault_hits r.cache);
      checki "one read io" 1 (Mcache.Dram_cache.read_ios r.cache))

let write_fault_marks_dirty () =
  let r = make_rig () in
  in_sim (fun () ->
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 3) ~vpn:50 ~write:true ();
      checki "dirty tracked" 1 (Mcache.Dram_cache.dirty_pages r.cache);
      Alcotest.(check bool) "writable" true (Hw.Page_table.writable r.pt ~vpn:50);
      (* msync cleans and write-protects *)
      Mcache.Dram_cache.msync r.cache ~core:0 ();
      checki "cleaned" 0 (Mcache.Dram_cache.dirty_pages r.cache);
      checki "one writeback io" 1 (Mcache.Dram_cache.writeback_ios r.cache);
      Alcotest.(check bool) "pte present after msync" true
        (Hw.Page_table.pfn r.pt ~vpn:50 <> Hw.Page_table.no_frame);
      Alcotest.(check bool) "write-protected" false (Hw.Page_table.writable r.pt ~vpn:50))

let data_survives_eviction () =
  (* Write distinctive bytes to many pages through the cache; with only 16
     frames, evictions write them back; re-reading must return them. *)
  let r = make_rig ~frames:16 () in
  in_sim (fun () ->
      for p = 0 to 63 do
        Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(1000 + p)
          ~write:true ();
        let pfn = mapped_pfn r.pt ~vpn:(1000 + p) in
        let data = Mcache.Dram_cache.pfn_data r.cache pfn in
        Bytes.fill data 0 psz (Char.chr (65 + (p mod 26)))
      done;
      Alcotest.(check bool) "evictions happened" true
        (Mcache.Dram_cache.evictions r.cache > 0);
      (* read everything back *)
      for p = 0 to 63 do
        Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(2000 + p)
          ~write:false ();
        let pfn = mapped_pfn r.pt ~vpn:(2000 + p) in
        let data = Mcache.Dram_cache.pfn_data r.cache pfn in
        Alcotest.(check char)
          (Printf.sprintf "page %d content" p)
          (Char.chr (65 + (p mod 26)))
          (Bytes.get data 0)
      done)

let eviction_unmaps_and_shoots () =
  let r = make_rig ~frames:16 () in
  let sent0 = Hw.Ipi.shootdowns_sent () in
  in_sim (fun () ->
      for p = 0 to 63 do
        Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(100 + p)
          ~write:false ()
      done;
      (* far more pages touched than frames: early mappings must be gone *)
      Alcotest.(check bool) "early vpn unmapped" true
        (Hw.Page_table.pfn r.pt ~vpn:100 = Hw.Page_table.no_frame);
      Alcotest.(check bool) "mapped <= frames" true (Hw.Page_table.mapped r.pt <= 16);
      Alcotest.(check bool) "batched shootdowns sent" true
        (Hw.Ipi.shootdowns_sent () > sent0))

let concurrent_faults_coalesce () =
  (* Two threads fault the same missing page: one device read, one waiter. *)
  let r = make_rig () in
  let eng = Sim.Engine.create () in
  for core = 0 to 1 do
    ignore
      (Sim.Engine.spawn eng ~core (fun () ->
           Mcache.Dram_cache.fault r.cache ~core ~key:(key 9) ~vpn:(300 + core)
             ~write:false ()))
  done;
  Sim.Engine.run eng;
  checki "single read io" 1 (Mcache.Dram_cache.read_ios r.cache);
  checki "one waited" 1 (Mcache.Dram_cache.inflight_waits r.cache)

let readahead_fetches_contiguous () =
  let r = make_rig ~frames:64 () in
  in_sim (fun () ->
      Mcache.Dram_cache.fault r.cache ~core:0 ~readahead:7 ~key:(key 10) ~vpn:400
        ~write:false ();
      checki "one merged io" 1 (Mcache.Dram_cache.read_ios r.cache);
      checki "eight pages" 8 (Mcache.Dram_cache.read_pages r.cache);
      Alcotest.(check bool) "neighbour resident" true
        (Mcache.Dram_cache.is_resident r.cache ~key:(key 17));
      (* neighbours are cached but unmapped: faulting one is a hit *)
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 12) ~vpn:402 ~write:false ();
      checki "hit, not miss" 1 (Mcache.Dram_cache.misses r.cache))

let writeback_merges_sorted_runs () =
  let r = make_rig ~frames:64 () in
  in_sim (fun () ->
      (* dirty pages 20..27 in scrambled order, via different cores *)
      List.iteri
        (fun i p ->
          Mcache.Dram_cache.fault r.cache ~core:(i mod 2) ~key:(key p) ~vpn:(500 + p)
            ~write:true ())
        [ 25; 20; 27; 22; 21; 26; 23; 24 ];
      Mcache.Dram_cache.msync r.cache ~core:0 ();
      checki "one merged write io" 1 (Mcache.Dram_cache.writeback_ios r.cache);
      checki "eight pages written" 8 (Mcache.Dram_cache.writeback_pages r.cache))

let drop_file_clears () =
  let r = make_rig () in
  in_sim (fun () ->
      for p = 0 to 5 do
        Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(600 + p) ~write:true ()
      done;
      Mcache.Dram_cache.drop_file r.cache ~core:0 ~file_id:1;
      Alcotest.(check bool) "nothing resident" true
        (not (Mcache.Dram_cache.is_resident r.cache ~key:(key 0)));
      checki "no dirty left" 0 (Mcache.Dram_cache.dirty_pages r.cache);
      checki "mappings gone" 0 (Hw.Page_table.mapped r.pt);
      (* dirty data reached the device *)
      Alcotest.(check bool) "written back" true
        (Mcache.Dram_cache.writeback_pages r.cache >= 6);
      checki "all frames free" 32 (Mcache.Dram_cache.free_frames r.cache))

let grow_shrink () =
  let r =
    make_rig ~frames:16
      ~tweak:(fun cfg -> { cfg with Mcache.Dram_cache.max_frames = 32 })
      ()
  in
  checki "initial" 16 (Mcache.Dram_cache.frames_total r.cache);
  checki "grow adds" 8 (Mcache.Dram_cache.grow r.cache ~frames:8);
  checki "bounded by max" 8 (Mcache.Dram_cache.grow r.cache ~frames:100);
  checki "at max" 32 (Mcache.Dram_cache.frames_total r.cache);
  in_sim (fun () ->
      checki "shrink removes" 20 (Mcache.Dram_cache.shrink r.cache ~frames:20));
  checki "after shrink" 12 (Mcache.Dram_cache.frames_total r.cache);
  (* cache still works at the smaller size *)
  in_sim (fun () ->
      for p = 0 to 30 do
        Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(700 + p) ~write:false ()
      done;
      Alcotest.(check bool) "usable after resize" true
        (Mcache.Dram_cache.is_resident r.cache ~key:(key 30)))

let writeback_daemon_cleans_in_background () =
  let r = make_rig ~frames:64 ~file_pages:256 () in
  let eng = Sim.Engine.create () in
  Mcache.Dram_cache.spawn_writeback_daemon r.cache ~eng ~hi:16 ~lo:4 ~core:1 ();
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         for p = 0 to 39 do
           Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(800 + p)
             ~write:true ()
         done));
  Sim.Engine.run eng;
  (* the daemon drained the dirty set below the low watermark without any
     foreground msync *)
  Alcotest.(check bool)
    (Printf.sprintf "dirty below lo (%d)" (Mcache.Dram_cache.dirty_pages r.cache))
    true
    (Mcache.Dram_cache.dirty_pages r.cache <= 4);
  Alcotest.(check bool) "pages written back" true
    (Mcache.Dram_cache.writeback_pages r.cache >= 36);
  Mcache.Dram_cache.stop_writeback_daemon r.cache;
  Sim.Engine.run eng

(* The daemon cleans at most 64 pages a round, so it leaves 8 of 72 pages
   written on core 1 dirty; evicting all 72 must leave no dirty entry
   behind, on core 1 or on any other. *)
let limited_clean_leaves_no_stale_entry () =
  let r = make_rig ~frames:128 ~file_pages:512 () in
  let eng = Sim.Engine.create () in
  Mcache.Dram_cache.spawn_writeback_daemon r.cache ~eng ~hi:70 ~lo:60 ~core:0 ();
  let touch p ~write =
    Mcache.Dram_cache.fault r.cache ~core:1 ~key:(key p) ~vpn:(1000 + p) ~write ()
  in
  ignore
    (Sim.Engine.spawn eng ~core:1 (fun () ->
         for p = 0 to 71 do
           touch p ~write:true
         done;
         for p = 100 to 400 do
           touch p ~write:false
         done));
  Sim.Engine.run eng;
  let resident =
    List.length
      (List.filter
         (fun p -> Mcache.Dram_cache.is_resident r.cache ~key:(key p))
         (List.init 72 Fun.id))
  in
  checki "written pages evicted" 0 resident;
  checki "no dirty entry left" 0 (Mcache.Dram_cache.dirty_pages r.cache);
  Mcache.Dram_cache.stop_writeback_daemon r.cache;
  Sim.Engine.run eng

let crash_loses_unsynced_data () =
  let r = make_rig ~frames:64 () in
  in_sim (fun () ->
      (* page 1 synced; page 2 dirty-only *)
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 1) ~vpn:901 ~write:true ();
      let pfn = mapped_pfn r.pt ~vpn:901 in
      Bytes.fill (Mcache.Dram_cache.pfn_data r.cache pfn) 0 psz 'S';
      Mcache.Dram_cache.msync r.cache ~core:0 ();
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 2) ~vpn:902 ~write:true ();
      let pfn2 = mapped_pfn r.pt ~vpn:902 in
      Bytes.fill (Mcache.Dram_cache.pfn_data r.cache pfn2) 0 psz 'L');
  Mcache.Dram_cache.crash r.cache;
  checki "cache empty" 64 (Mcache.Dram_cache.free_frames r.cache);
  in_sim (fun () ->
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 1) ~vpn:911 ~write:false ();
      let pfn = mapped_pfn r.pt ~vpn:911 in
      Alcotest.(check char) "synced data survived" 'S'
        (Bytes.get (Mcache.Dram_cache.pfn_data r.cache pfn) 0);
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 2) ~vpn:912 ~write:false ();
      let pfn2 = mapped_pfn r.pt ~vpn:912 in
      Alcotest.(check char) "unsynced data lost" '\000'
        (Bytes.get (Mcache.Dram_cache.pfn_data r.cache pfn2) 0))

let msync_clean_cache_is_free () =
  (* msync with nothing dirty must not touch the device — no write-back
     I/O and no page-table walk.  Kreon's commit protocol relies on this:
     its second msync (superblock only) must not re-flush the world. *)
  let r = make_rig () in
  in_sim (fun () ->
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 4) ~vpn:950 ~write:false ();
      Mcache.Dram_cache.msync r.cache ~core:0 ();
      checki "no writeback io" 0 (Mcache.Dram_cache.writeback_ios r.cache);
      checki "no pages written" 0 (Mcache.Dram_cache.writeback_pages r.cache);
      (* a dirty page still flushes *)
      Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key 4) ~vpn:950 ~write:true ();
      Mcache.Dram_cache.msync r.cache ~core:0 ();
      checki "dirty page flushed" 1 (Mcache.Dram_cache.writeback_ios r.cache))

(* Random write/msync interleavings: after a power cut, the device must
   hold exactly the bytes of the last completed msync for every page —
   later writes gone, synced writes intact.  64 frames >> 16 pages, so no
   eviction ever writes back behind the model's back. *)
type crash_op = C_write of int * char | C_msync

let crash_keeps_exactly_synced =
  let npages = 16 in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map2
              (fun p c -> C_write (p, Char.chr (65 + c)))
              (int_bound (npages - 1)) (int_bound 25) );
          (1, return C_msync);
        ])
  in
  let print_op = function
    | C_write (p, ch) -> Printf.sprintf "write %d %c" p ch
    | C_msync -> "msync"
  in
  let ops_arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      QCheck.Gen.(list_size (int_range 1 40) op_gen)
  in
  QCheck.Test.make ~name:"crash keeps exactly the msynced bytes" ~count:30
    ops_arb
    (fun ops ->
      let r = make_rig ~frames:64 () in
      let latest = Array.make npages '\000' in
      let synced = Array.make npages '\000' in
      in_sim (fun () ->
          List.iter
            (function
              | C_write (p, ch) ->
                  Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p)
                    ~vpn:(3000 + p) ~write:true ();
                  let pfn = mapped_pfn r.pt ~vpn:(3000 + p) in
                  Bytes.fill
                    (Mcache.Dram_cache.pfn_data r.cache pfn)
                    0 psz ch;
                  latest.(p) <- ch
              | C_msync ->
                  Mcache.Dram_cache.msync r.cache ~core:0 ();
                  Array.blit latest 0 synced 0 npages)
            ops);
      Mcache.Dram_cache.crash r.cache;
      let ok = ref true in
      in_sim (fun () ->
          for p = 0 to npages - 1 do
            Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p) ~vpn:(4000 + p)
              ~write:false ();
            let pfn = mapped_pfn r.pt ~vpn:(4000 + p) in
            let got =
              Bytes.get
                (Mcache.Dram_cache.pfn_data r.cache pfn)
                0
            in
            if got <> synced.(p) then ok := false
          done);
      !ok)

(* ---- Replacement policies ---- *)

(* Each list-based policy is checked op-by-op against a naive reference
   model (plain OCaml lists, front = eviction end): same victims in the
   same order, same membership, same active count, on arbitrary
   interleavings of inserts, touches, removes and evictions. *)

type pol_op =
  | P_insert of int * bool
  | P_touch of int
  | P_remove of int
  | P_evict of int

let pol_nframes = 16

let pol_ops_arb =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          ( 4,
            map2
              (fun f touched -> P_insert (f, touched))
              (int_bound (pol_nframes - 1))
              bool );
          (4, map (fun f -> P_touch f) (int_bound (pol_nframes - 1)));
          (1, map (fun f -> P_remove f) (int_bound (pol_nframes - 1)));
          (2, map (fun n -> P_evict (n + 1)) (int_bound 5));
        ])
  in
  let print_op = function
    | P_insert (f, t) -> Printf.sprintf "insert %d%s" f (if t then "!" else "")
    | P_touch f -> Printf.sprintf "touch %d" f
    | P_remove f -> Printf.sprintf "remove %d" f
    | P_evict n -> Printf.sprintf "evict %d" n
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    Gen.(list_size (int_range 1 150) op_gen)

(* Drive [Policy.t] and the model together; [apply] returns the new model
   state plus, for evictions, the victims the model expects. *)
let policy_matches_model ~kind ~init ~apply ~members ops =
  let p = Mcache.Policy.make c ~nframes:pol_nframes kind in
  let ok = ref true in
  let model = ref init in
  List.iter
    (fun op ->
      (match op with
      | P_insert (f, touched) -> Mcache.Policy.note_insert p f ~touched
      | P_touch f -> ignore (Mcache.Policy.touch p f)
      | P_remove f -> Mcache.Policy.note_remove p f
      | P_evict n ->
          let victims, _ = Mcache.Policy.evict_candidates p n in
          let m', expected = apply !model op in
          model := m';
          if victims <> expected then ok := false);
      (match op with
      | P_evict _ -> ()
      | _ ->
          let m', _ = apply !model op in
          model := m');
      let ms = members !model in
      if Mcache.Policy.active_count p <> List.length ms then ok := false;
      for f = 0 to pol_nframes - 1 do
        if Mcache.Policy.is_active p f <> List.mem f ms then ok := false
      done)
    ops;
  !ok

let rec take_front n = function
  | [] -> ([], [])
  | l when n = 0 -> ([], l)
  | x :: rest ->
      let v, rem = take_front (n - 1) rest in
      (x :: v, rem)

let policy_fifo_matches_model =
  let apply q = function
    | P_insert (f, _) -> if List.mem f q then (q, []) else (q @ [ f ], [])
    | P_touch _ -> (q, [])
    | P_remove f -> (List.filter (( <> ) f) q, [])
    | P_evict n ->
        let v, rem = take_front n q in
        (rem, v)
  in
  QCheck.Test.make ~name:"FIFO policy matches the reference model" ~count:200
    pol_ops_arb
    (policy_matches_model ~kind:Mcache.Policy.Fifo ~init:[] ~apply
       ~members:(fun q -> q))

let policy_lru_matches_model =
  let apply q = function
    | P_insert (f, touched) ->
        if List.mem f q then (q, [])
        else if touched then (q @ [ f ], [])
        else (f :: q, []) (* untouched readahead: first to go *)
    | P_touch f ->
        if List.mem f q then (List.filter (( <> ) f) q @ [ f ], []) else (q, [])
    | P_remove f -> (List.filter (( <> ) f) q, [])
    | P_evict n ->
        let v, rem = take_front n q in
        (rem, v)
  in
  QCheck.Test.make ~name:"LRU policy matches the reference model" ~count:200
    pol_ops_arb
    (policy_matches_model ~kind:Mcache.Policy.Lru ~init:[] ~apply
       ~members:(fun q -> q))

let policy_2q_matches_model =
  (* model = (a1 probationary FIFO, am protected LRU), fronts evict first *)
  let rec evict n (a1, am) acc =
    if n = 0 then (List.rev acc, (a1, am))
    else
      let from_a1 =
        a1 <> []
        && (am = [] || 4 * List.length a1 >= List.length a1 + List.length am)
      in
      match (from_a1, a1, am) with
      | true, f :: rest, _ -> evict (n - 1) (rest, am) (f :: acc)
      | _, _, f :: rest -> evict (n - 1) (a1, rest) (f :: acc)
      | _, f :: rest, [] -> evict (n - 1) (rest, []) (f :: acc)
      | _, [], [] -> (List.rev acc, (a1, am))
  in
  let apply (a1, am) = function
    | P_insert (f, _) ->
        if List.mem f a1 || List.mem f am then ((a1, am), [])
        else ((a1 @ [ f ], am), [])
    | P_touch f ->
        if List.mem f am then ((a1, List.filter (( <> ) f) am @ [ f ]), [])
        else if List.mem f a1 then
          ((List.filter (( <> ) f) a1, am @ [ f ]), [])
        else ((a1, am), [])
    | P_remove f ->
        ((List.filter (( <> ) f) a1, List.filter (( <> ) f) am), [])
    | P_evict n ->
        let v, m = evict n (a1, am) [] in
        (m, v)
  in
  QCheck.Test.make ~name:"2Q policy matches the reference model" ~count:200
    pol_ops_arb
    (policy_matches_model ~kind:Mcache.Policy.Two_q ~init:([], []) ~apply
       ~members:(fun (a1, am) -> a1 @ am))

let policy_clock_delegates =
  (* CLOCK must be the pre-policy-interface structure verbatim: drive a
     raw Clock_lru with the documented op mapping and require identical
     victims and membership. *)
  QCheck.Test.make ~name:"CLOCK policy delegates to Clock_lru unchanged"
    ~count:200 pol_ops_arb (fun ops ->
      let p = Mcache.Policy.make c ~nframes:pol_nframes Mcache.Policy.Clock in
      let lru = Dstruct.Clock_lru.create ~nframes:pol_nframes in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | P_insert (f, touched) ->
              Mcache.Policy.note_insert p f ~touched;
              Dstruct.Clock_lru.set_active lru f true;
              if touched then Dstruct.Clock_lru.touch lru f
          | P_touch f ->
              ignore (Mcache.Policy.touch p f);
              Dstruct.Clock_lru.touch lru f
          | P_remove f ->
              Mcache.Policy.note_remove p f;
              Dstruct.Clock_lru.set_active lru f false
          | P_evict n ->
              let got, _ = Mcache.Policy.evict_candidates p n in
              if got <> Dstruct.Clock_lru.evict_candidates lru n then
                ok := false);
          if Mcache.Policy.active_count p <> Dstruct.Clock_lru.active_count lru
          then ok := false;
          for f = 0 to pol_nframes - 1 do
            if Mcache.Policy.is_active p f <> Dstruct.Clock_lru.is_active lru f
            then ok := false
          done)
        ops;
      !ok)

let policy_random_deterministic_and_valid =
  (* Sampled-LRU draws from its own seeded stream: two instances fed the
     same ops must pick the same victims, every victim must have been
     resident, and eviction must drain exactly min(n, resident). *)
  QCheck.Test.make ~name:"random policy is seeded-deterministic and valid"
    ~count:200 pol_ops_arb (fun ops ->
      let mk () = Mcache.Policy.make c ~nframes:pol_nframes (Mcache.Policy.Random 42) in
      let p1 = mk () and p2 = mk () in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | P_insert (f, touched) ->
              Mcache.Policy.note_insert p1 f ~touched;
              Mcache.Policy.note_insert p2 f ~touched
          | P_touch f ->
              ignore (Mcache.Policy.touch p1 f);
              ignore (Mcache.Policy.touch p2 f)
          | P_remove f ->
              Mcache.Policy.note_remove p1 f;
              Mcache.Policy.note_remove p2 f
          | P_evict n ->
              let before = Mcache.Policy.active_count p1 in
              let was = Array.init pol_nframes (Mcache.Policy.is_active p1) in
              let v1, _ = Mcache.Policy.evict_candidates p1 n in
              let v2, _ = Mcache.Policy.evict_candidates p2 n in
              if v1 <> v2 then ok := false;
              if List.length v1 <> min n before then ok := false;
              if List.length (List.sort_uniq compare v1) <> List.length v1 then
                ok := false;
              List.iter
                (fun f ->
                  if not was.(f) then ok := false;
                  if Mcache.Policy.is_active p1 f then ok := false)
                v1)
        ops;
      !ok)

let clock_retire_clears_reference_bit () =
  (* Regression: shrink used to deactivate a stolen frame without
     clearing its reference bit, so a later grow re-added the frame with
     stale recency.  [retire] must scrub everything; [set_active false]
     alone (the old behaviour) provably does not. *)
  let lru = Dstruct.Clock_lru.create ~nframes:4 in
  Dstruct.Clock_lru.set_active lru 0 true;
  Dstruct.Clock_lru.touch lru 0;
  Dstruct.Clock_lru.set_active lru 0 false;
  Alcotest.(check bool) "set_active false leaves the ref bit" true
    (Dstruct.Clock_lru.is_referenced lru 0);
  Dstruct.Clock_lru.set_active lru 0 true;
  Dstruct.Clock_lru.retire lru 0;
  Alcotest.(check bool) "retire clears the ref bit" false
    (Dstruct.Clock_lru.is_referenced lru 0);
  Alcotest.(check bool) "retired frame is inactive" false
    (Dstruct.Clock_lru.is_active lru 0)

let shrink_grow_under_every_policy () =
  (* Retired frames must leave no policy metadata behind: shrink, grow
     the frames back, then hammer well past capacity — the cache must
     keep working (a stale queue slot or ref bit would surface as a
     duplicate/ghost victim and corrupt the frame accounting). *)
  List.iter
    (fun kind ->
      let name = Mcache.Policy.kind_to_string kind in
      let r =
        make_rig ~frames:16
          ~tweak:(fun cfg ->
            { cfg with Mcache.Dram_cache.max_frames = 32; policy = kind })
          ()
      in
      in_sim (fun () ->
          for p = 0 to 15 do
            Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p)
              ~vpn:(5000 + p) ~write:false ()
          done;
          checki (name ^ ": shrink") 8 (Mcache.Dram_cache.shrink r.cache ~frames:8);
          checki (name ^ ": grow") 8 (Mcache.Dram_cache.grow r.cache ~frames:8);
          for p = 0 to 63 do
            Mcache.Dram_cache.fault r.cache ~core:0 ~key:(key p)
              ~vpn:(6000 + p) ~write:false ()
          done;
          Alcotest.(check bool) (name ^ ": usable after shrink/grow") true
            (Mcache.Dram_cache.is_resident r.cache ~key:(key 63));
          checki (name ^ ": frame accounting intact") 16
            (Mcache.Dram_cache.frames_total r.cache)))
    Mcache.Policy.all_kinds

let degraded_eviction_skips_dirty_under_every_policy () =
  (* Once an error storm forces read-only mode, write-back is unsafe: a
     policy may only surface clean victims.  Dirty pages must stay
     resident (their only durable copy is the DRAM frame) while reads
     keep working off the clean frames — for every policy. *)
  List.iter
    (fun kind ->
      let name = Mcache.Policy.kind_to_string kind in
      let spec = { Fault.Plan.default with Fault.Plan.write_error = 1.0 } in
      Fault.with_plan (Fault.Plan.make spec) (fun () ->
          let machine = Hw.Machine.create () in
          let pt = Hw.Page_table.create () in
          let cfg =
            {
              (Mcache.Dram_cache.default_config ~frames:16) with
              Mcache.Dram_cache.policy = kind;
            }
          in
          let cache =
            Mcache.Dram_cache.create ~costs:c ~machine ~page_table:pt cfg
          in
          let dev = Sdevice.Nvme.create ~name:"pol-nvme" () in
          let access = Sdevice.Access.spdk_nvme c dev in
          Mcache.Dram_cache.register_file cache ~file_id:1 ~access
            ~translate:(fun p -> if p < 256 then Some p else None);
          Mcache.Dram_cache.set_shoot_cores cache [ 0 ];
          in_sim (fun () ->
              for p = 0 to 7 do
                Mcache.Dram_cache.fault cache ~core:0 ~key:(key p)
                  ~vpn:(7000 + p) ~write:true ()
              done;
              for p = 8 to 15 do
                Mcache.Dram_cache.fault cache ~core:0 ~key:(key p)
                  ~vpn:(7000 + p) ~write:false ()
              done;
              for _ = 1 to 8 do
                match Mcache.Dram_cache.msync cache ~core:0 () with
                | () -> Alcotest.fail (name ^ ": msync acked a failed flush")
                | exception Fault.Io_error { write = true; _ } -> ()
              done;
              Alcotest.(check bool) (name ^ ": degraded") true
                (Mcache.Dram_cache.degraded cache);
              (* reads continue: eviction reclaims only the clean half *)
              for p = 16 to 39 do
                Mcache.Dram_cache.fault cache ~core:0 ~key:(key p)
                  ~vpn:(8000 + p) ~write:false ()
              done;
              for p = 0 to 7 do
                Alcotest.(check bool)
                  (Printf.sprintf "%s: dirty page %d still resident" name p)
                  true
                  (Mcache.Dram_cache.is_resident cache ~key:(key p))
              done;
              checki (name ^ ": dirty pages intact") 8
                (Mcache.Dram_cache.dirty_pages cache);
              Alcotest.(check bool) (name ^ ": eviction progressed") true
                (Mcache.Dram_cache.evictions cache > 0))))
    Mcache.Policy.all_kinds

(* ---- Scaling regime (DESIGN.md §2) ---- *)

(* The paper's 512-page eviction batch is past Linux's 33-page
   single-page flush ceiling, so each batch is one full TLB flush per
   core.  Every cache size keeps that regime: its batch is past the
   ceiling, and it is the smallest such batch wherever a 64th of the
   cache is not. *)
let evict_batch_in_full_flush_regime () =
  let ceiling = Hw.Ipi.full_flush_above in
  checki "Linux's tlb_single_page_flush_ceiling" 33 ceiling;
  for frames = 1 to 65_536 do
    let batch = (Mcache.Dram_cache.default_config ~frames).evict_batch in
    if batch <= ceiling then
      Alcotest.failf "%d frames: batch %d is not past the ceiling" frames batch;
    if frames / 64 <= ceiling && batch <> ceiling + 1 then
      Alcotest.failf "%d frames: batch %d, not the regime's smallest %d" frames
        batch (ceiling + 1)
  done

let unregistered_file_rejected () =
  let r = make_rig () in
  Alcotest.check_raises "unknown file" (Invalid_argument "Dram_cache: unregistered file 9")
    (fun () ->
      in_sim (fun () ->
          Mcache.Dram_cache.fault r.cache ~core:0
            ~key:(Mcache.Pagekey.make ~file:9 ~page:0)
            ~vpn:1 ~write:false ()))

let () =
  Alcotest.run "mcache"
    [
      ( "pagekey",
        [
          QCheck_alcotest.to_alcotest pagekey_roundtrip;
          Alcotest.test_case "ordering" `Quick pagekey_orders_by_file_then_page;
          Alcotest.test_case "bounds" `Quick pagekey_bounds;
        ] );
      ( "freelist",
        [
          Alcotest.test_case "numa fallback" `Quick freelist_fallback;
          Alcotest.test_case "free and spill" `Quick freelist_free_and_spill;
          Alcotest.test_case "batched refills" `Quick freelist_refills_batched;
        ] );
      ( "dirty set",
        [
          Alcotest.test_case "sorted drain" `Quick dirty_sorted_drain;
          Alcotest.test_case "filter and limit" `Quick dirty_file_filter_and_limit;
          Alcotest.test_case "idempotent add" `Quick dirty_idempotent_add;
          QCheck_alcotest.to_alcotest dirty_set_matches_model;
        ] );
      ( "dram cache",
        [
          Alcotest.test_case "miss then hit" `Quick fault_miss_then_hit;
          Alcotest.test_case "dirty tracking + msync" `Quick write_fault_marks_dirty;
          Alcotest.test_case "data survives eviction" `Quick data_survives_eviction;
          Alcotest.test_case "eviction unmaps" `Quick eviction_unmaps_and_shoots;
          Alcotest.test_case "in-flight coalescing" `Quick concurrent_faults_coalesce;
          Alcotest.test_case "readahead" `Quick readahead_fetches_contiguous;
          Alcotest.test_case "merged writeback" `Quick writeback_merges_sorted_runs;
          Alcotest.test_case "drop file" `Quick drop_file_clears;
          Alcotest.test_case "grow/shrink" `Quick grow_shrink;
          Alcotest.test_case "writeback daemon" `Quick writeback_daemon_cleans_in_background;
          Alcotest.test_case "limited clean leaves no stale entry" `Quick
            limited_clean_leaves_no_stale_entry;
          Alcotest.test_case "crash loses unsynced" `Quick crash_loses_unsynced_data;
          Alcotest.test_case "msync on clean cache" `Quick msync_clean_cache_is_free;
          QCheck_alcotest.to_alcotest crash_keeps_exactly_synced;
          Alcotest.test_case "unregistered file" `Quick unregistered_file_rejected;
          Alcotest.test_case "eviction batch in the full-flush regime" `Quick
            evict_batch_in_full_flush_regime;
        ] );
      ( "policy",
        [
          QCheck_alcotest.to_alcotest policy_fifo_matches_model;
          QCheck_alcotest.to_alcotest policy_lru_matches_model;
          QCheck_alcotest.to_alcotest policy_2q_matches_model;
          QCheck_alcotest.to_alcotest policy_clock_delegates;
          QCheck_alcotest.to_alcotest policy_random_deterministic_and_valid;
          Alcotest.test_case "retire scrubs the ref bit" `Quick
            clock_retire_clears_reference_bit;
          Alcotest.test_case "shrink/grow under every policy" `Quick
            shrink_grow_under_every_policy;
          Alcotest.test_case "degraded eviction skips dirty" `Quick
            degraded_eviction_skips_dirty_under_every_policy;
        ] );
    ]
