(* Tests for the Aquila library OS (lib/core): VMA management, syscall
   interception, and the Context application surface. *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)

(* ---- Vma ---- *)

let vma_insert_lookup () =
  let v = Aquila.Vma.create c in
  let area npages vstart =
    { Aquila.Vma.vstart; npages; file_id = 1; file_page0 = 0; advice = Aquila.Vma.Normal }
  in
  ignore (Aquila.Vma.insert v (area 10 100));
  ignore (Aquila.Vma.insert v (area 5 200));
  checki "count" 2 (Aquila.Vma.count v);
  let hit vpn = fst (Aquila.Vma.lookup v ~vpn) in
  (match hit 105 with
  | Some a -> checki "found first area" 100 a.Aquila.Vma.vstart
  | None -> Alcotest.fail "lookup inside area failed");
  Alcotest.(check bool) "miss below" true (hit 99 = None);
  Alcotest.(check bool) "miss in gap" true (hit 110 = None);
  Alcotest.(check bool) "last page of area" true (hit 204 <> None);
  Alcotest.(check bool) "past end" true (hit 205 = None)

let vma_rejects_overlap () =
  let v = Aquila.Vma.create c in
  let area vstart npages =
    { Aquila.Vma.vstart; npages; file_id = 1; file_page0 = 0; advice = Aquila.Vma.Normal }
  in
  ignore (Aquila.Vma.insert v (area 100 10));
  Alcotest.check_raises "overlap from below" (Invalid_argument "Vma.insert: overlap")
    (fun () -> ignore (Aquila.Vma.insert v (area 95 6)));
  Alcotest.check_raises "contained" (Invalid_argument "Vma.insert: overlap") (fun () ->
      ignore (Aquila.Vma.insert v (area 105 2)))

let vma_remove () =
  let v = Aquila.Vma.create c in
  ignore
    (Aquila.Vma.insert v
       { Aquila.Vma.vstart = 50; npages = 4; file_id = 2; file_page0 = 0;
         advice = Aquila.Vma.Normal });
  Alcotest.(check bool) "found before remove" true
    (fst (Aquila.Vma.lookup v ~vpn:51) <> None);
  let removed, _ = Aquila.Vma.remove v ~vstart:50 in
  Alcotest.(check bool) "removed" true (removed <> None);
  Alcotest.(check bool) "gone" true (fst (Aquila.Vma.lookup v ~vpn:51) = None)

(* [lookup] serves a page of the last area it hit without a tree search;
   after any sequence of inserts, removes and replaces (a remove, then an
   insert at the same start) it must still answer what a floor search
   over the live areas answers, which a fresh index's first lookup is,
   and charge the same cost whether or not the shortcut served it. *)
let vma_lookup_vs_fresh =
  QCheck.Test.make ~name:"lookup matches a fresh floor search" ~count:300
    QCheck.(
      make
        ~print:Print.(list (triple int int int))
        Gen.(
          list_size (int_range 1 80)
            (triple (int_bound 5) (int_bound 15) (int_bound 15))))
    (fun script ->
      let v = Aquila.Vma.create c in
      let live = ref [] in
      let area vstart npages =
        { Aquila.Vma.vstart; npages; file_id = 1; file_page0 = 0;
          advice = Aquila.Vma.Normal }
      in
      let insert a =
        match Aquila.Vma.insert v a with
        | _ -> live := a :: !live
        | exception Invalid_argument _ -> ()
      in
      let remove vstart =
        ignore (Aquila.Vma.remove v ~vstart);
        live := List.filter (fun a -> a.Aquila.Vma.vstart <> vstart) !live
      in
      List.for_all
        (fun (op, x, y) ->
          let vstart = x * 8 in
          match op with
          | 0 -> insert (area vstart (1 + (y mod 10))); true
          | 1 -> remove vstart; true
          | 2 ->
              remove vstart;
              insert (area vstart (1 + (y mod 10)));
              true
          | _ ->
              let vpn = vstart + y in
              let fresh = Aquila.Vma.create c in
              List.iter (fun a -> ignore (Aquila.Vma.insert fresh a)) !live;
              let got, cost = Aquila.Vma.lookup v ~vpn in
              let _, miss_cost = Aquila.Vma.lookup v ~vpn:1_000_000 in
              got = fst (Aquila.Vma.lookup fresh ~vpn) && cost = miss_cost)
        script)

(* ---- Syscalls ---- *)

let syscall_counters () =
  let eng = Sim.Engine.create () in
  let s = Aquila.Syscalls.create () in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Aquila.Syscalls.intercepted s c "mmap";
         Aquila.Syscalls.intercepted s c "msync";
         Aquila.Syscalls.forwarded s c Hw.Domain_x.Nonroot_ring0 "open"));
  Sim.Engine.run eng;
  checki "intercepted" 2 (Aquila.Syscalls.intercepted_count s);
  checki "forwarded" 1 (Aquila.Syscalls.forwarded_count s);
  Alcotest.(check bool) "by name" true
    (List.mem ("mmap", 1) (Aquila.Syscalls.by_name s));
  (* intercepted calls avoid the vmcall: the clock advanced by far less
     than one vmcall per intercepted call *)
  Alcotest.(check bool) "interception cheap" true
    (Sim.Engine.now eng < Int64.mul 2L c.Hw.Costs.vmcall_roundtrip)

(* ---- Context ---- *)

type rig = { ctx : Aquila.Context.t; file : Aquila.Context.file }

let make_rig ?(frames = 32) ?(max_frames = 64) ?(file_pages = 256)
    ?(domain = Hw.Domain_x.Nonroot_ring0) () =
  let cfg0 = Aquila.Context.default_config ~cache_frames:frames in
  let cfg =
    {
      Aquila.Context.domain;
      cache = { cfg0.Aquila.Context.cache with Mcache.Dram_cache.max_frames };
    }
  in
  let ctx = Aquila.Context.create cfg in
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
  let file =
    Aquila.Context.attach_file ctx ~name:"t.dat" ~access
      ~translate:(fun p -> if p < file_pages then Some p else None)
      ~size_pages:file_pages
  in
  { ctx; file }

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng;
  eng

let rw_roundtrip_across_evictions () =
  (* 32-frame cache, 200 pages of data written then read back: integrity
     must survive eviction, write-back and refetch. *)
  let r = make_rig ~frames:32 () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:200 () in
         for p = 0 to 199 do
           let src = Bytes.make 32 (Char.chr (33 + (p mod 90))) in
           Aquila.Context.write r.ctx region ~off:(p * psz) ~src
         done;
         for p = 0 to 199 do
           let dst = Bytes.create 32 in
           Aquila.Context.read r.ctx region ~off:(p * psz) ~len:32 ~dst;
           Alcotest.(check char)
             (Printf.sprintf "page %d" p)
             (Char.chr (33 + (p mod 90)))
             (Bytes.get dst 0)
         done;
         Alcotest.(check bool) "evictions occurred" true
           (Mcache.Dram_cache.evictions (Aquila.Context.cache r.ctx) > 0)))

let hits_are_free () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:8 () in
         Aquila.Context.touch r.ctx region ~page:0 ~write:false;
         let f0 = Aquila.Context.faults r.ctx in
         let t0 = Sim.Engine.now_f () in
         for _ = 1 to 100 do
           Aquila.Context.touch r.ctx region ~page:0 ~write:false
         done;
         let dt = Int64.sub (Sim.Engine.now_f ()) t0 in
         checki "no more faults" f0 (Aquila.Context.faults r.ctx);
         (* 100 hits cost at most a few cycles of TLB noise *)
         Alcotest.(check bool) "hits ~free" true (dt < 500L)))

let write_after_read_faults_again () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
         Aquila.Context.touch r.ctx region ~page:1 ~write:false;
         let f_after_read = Aquila.Context.faults r.ctx in
         (* the read fault mapped it read-only; the store faults again to
            mark the page dirty (paper's dirty tracking) *)
         Aquila.Context.touch r.ctx region ~page:1 ~write:true;
         checki "write fault taken" (f_after_read + 1) (Aquila.Context.faults r.ctx);
         checki "dirty" 1 (Mcache.Dram_cache.dirty_pages (Aquila.Context.cache r.ctx));
         (* further stores are free *)
         Aquila.Context.touch r.ctx region ~page:1 ~write:true;
         checki "no third fault" (f_after_read + 1) (Aquila.Context.faults r.ctx)))

let munmap_keeps_cache () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
         Aquila.Context.touch r.ctx region ~page:2 ~write:false;
         let misses0 = Mcache.Dram_cache.misses (Aquila.Context.cache r.ctx) in
         Aquila.Context.munmap r.ctx region;
         (* remap: the page faults again but hits the DRAM cache *)
         let region2 = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
         Aquila.Context.touch r.ctx region2 ~page:2 ~write:false;
         checki "no new device read" misses0
           (Mcache.Dram_cache.misses (Aquila.Context.cache r.ctx));
         Alcotest.(check bool) "fault-hit counted" true
           (Mcache.Dram_cache.fault_hits (Aquila.Context.cache r.ctx) > 0)))

let msync_persists () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
         Aquila.Context.write r.ctx region ~off:100 ~src:(Bytes.of_string "durable");
         Aquila.Context.msync r.ctx region;
         checki "clean after msync" 0
           (Mcache.Dram_cache.dirty_pages (Aquila.Context.cache r.ctx));
         Alcotest.(check bool) "write-back happened" true
           (Mcache.Dram_cache.writeback_pages (Aquila.Context.cache r.ctx) > 0)))

let madvise_controls_readahead () =
  let r = make_rig ~frames:64 () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:100 () in
         let cache = Aquila.Context.cache r.ctx in
         Aquila.Context.madvise r.ctx region Aquila.Vma.Random;
         Aquila.Context.touch r.ctx region ~page:0 ~write:false;
         checki "random: one page" 1 (Mcache.Dram_cache.read_pages cache);
         Aquila.Context.madvise r.ctx region Aquila.Vma.Sequential;
         Aquila.Context.touch r.ctx region ~page:50 ~write:false;
         Alcotest.(check bool) "sequential: window fetched" true
           (Mcache.Dram_cache.read_pages cache > 16)))

let mmap_bounds () =
  let r = make_rig ~file_pages:16 () in
  Alcotest.check_raises "mmap beyond file"
    (Invalid_argument "Context.mmap: range outside file") (fun () ->
      ignore
        (in_sim (fun () ->
             Aquila.Context.enter_thread r.ctx;
             ignore (Aquila.Context.mmap r.ctx r.file ~npages:17 ()))))

let segfault_outside_mapping () =
  let r = make_rig () in
  Alcotest.check_raises "access outside region"
    (Invalid_argument "Context: access outside region") (fun () ->
      ignore
        (in_sim (fun () ->
             Aquila.Context.enter_thread r.ctx;
             let region = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
             Aquila.Context.touch r.ctx region ~page:4 ~write:false)))

let resize_cache_via_hypervisor () =
  let r = make_rig ~frames:32 ~max_frames:64 () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         Aquila.Context.resize_cache r.ctx ~frames:64;
         checki "grown" 64 (Mcache.Dram_cache.frames_total (Aquila.Context.cache r.ctx));
         Aquila.Context.resize_cache r.ctx ~frames:16;
         checki "shrunk" 16 (Mcache.Dram_cache.frames_total (Aquila.Context.cache r.ctx));
         checki "resizes went through the host" 2
           (Aquila.Syscalls.forwarded_count (Aquila.Context.syscalls r.ctx))))

let ept_faults_charged_lazily () =
  let r = make_rig ~frames:32 () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:8 () in
         for p = 0 to 7 do
           Aquila.Context.touch r.ctx region ~page:p ~write:false
         done;
         (* all frames live in one 2 MiB EPT mapping *)
         checki "one EPT fault" 1 (Aquila.Context.ept_faults r.ctx)))

let kmmap_has_pricier_traps () =
  (* Same fault sequence under non-root ring0 vs ring3 (kmmap): the ring3
     variant pays the bigger trap on every fault. *)
  let run domain =
    let r = make_rig ~domain () in
    let eng =
      in_sim (fun () ->
          Aquila.Context.enter_thread r.ctx;
          let region = Aquila.Context.mmap r.ctx r.file ~npages:16 () in
          for p = 0 to 15 do
            Aquila.Context.touch r.ctx region ~page:p ~write:false
          done)
    in
    Sim.Engine.now eng
  in
  let aquila = run Hw.Domain_x.Nonroot_ring0 in
  let kmmap = run Hw.Domain_x.Ring3 in
  Alcotest.(check bool) "kmmap slower" true (kmmap > aquila);
  (* the gap is 16 faults x (1287 - 642) cycles of trap difference, minus
     Aquila's one-time vmlaunch and EPT fault *)
  Alcotest.(check bool) "gap ~ trap difference" true
    (Int64.sub kmmap aquila > 3000L)

let mprotect_write_protects () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
         Aquila.Context.touch r.ctx region ~page:0 ~write:true;
         let f0 = Aquila.Context.faults r.ctx in
         Aquila.Context.mprotect r.ctx region ~writable:false;
         (* a read still succeeds without a fault... *)
         Aquila.Context.touch r.ctx region ~page:0 ~write:false;
         checki "read ok" f0 (Aquila.Context.faults r.ctx);
         (* ...but the next store takes a (dirty-tracking) fault *)
         Aquila.Context.touch r.ctx region ~page:0 ~write:true;
         checki "store refaults" (f0 + 1) (Aquila.Context.faults r.ctx)))

let mremap_grows_without_copies () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Aquila.Context.enter_thread r.ctx;
         let region = Aquila.Context.mmap r.ctx r.file ~npages:4 () in
         Aquila.Context.write r.ctx region ~off:10 ~src:(Bytes.of_string "keepme");
         let misses0 = Mcache.Dram_cache.misses (Aquila.Context.cache r.ctx) in
         let bigger = Aquila.Context.mremap r.ctx region ~npages:16 in
         checki "grown" 16 (Aquila.Context.region_npages bigger);
         let dst = Bytes.create 6 in
         Aquila.Context.read r.ctx bigger ~off:10 ~len:6 ~dst;
         Alcotest.(check string) "data visible through new mapping" "keepme"
           (Bytes.to_string dst);
         checki "no device refetch" misses0
           (Mcache.Dram_cache.misses (Aquila.Context.cache r.ctx))))

(* Model-based property: random page-granular writes and reads through
   Aquila (with a cache far smaller than the file, forcing evictions,
   write-backs and refetches) always agree with a plain in-memory model. *)
let data_plane_model =
  QCheck.Test.make ~name:"aquila data plane matches an in-memory model" ~count:25
    QCheck.(
      pair small_int
        (list_of_size (QCheck.Gen.int_range 1 150)
           (pair (int_bound 99) (int_bound 255))))
    (fun (seed, ops) ->
      let r = make_rig ~frames:16 ~file_pages:128 () in
      let model = Array.make 100 0 in
      ignore seed;
      let ok = ref true in
      ignore
        (in_sim (fun () ->
             Aquila.Context.enter_thread r.ctx;
             let region = Aquila.Context.mmap r.ctx r.file ~npages:100 () in
             List.iteri
               (fun i (page, v) ->
                 if i land 1 = 0 then begin
                   (* write one byte at the start of [page] *)
                   Aquila.Context.write r.ctx region ~off:(page * Hw.Defs.page_size)
                     ~src:(Bytes.make 1 (Char.chr v));
                   model.(page) <- v
                 end
                 else begin
                   let dst = Bytes.create 1 in
                   Aquila.Context.read r.ctx region
                     ~off:(page * Hw.Defs.page_size)
                     ~len:1 ~dst;
                   if Char.code (Bytes.get dst 0) <> model.(page) then ok := false
                 end)
               ops;
             (* final sweep *)
             Array.iteri
               (fun page v ->
                 let dst = Bytes.create 1 in
                 Aquila.Context.read r.ctx region ~off:(page * Hw.Defs.page_size)
                   ~len:1 ~dst;
                 if Char.code (Bytes.get dst 0) <> v then ok := false)
               model));
      !ok)

let concurrent_torture () =
  (* 8 threads hammer a 200-page file through a 24-frame cache with mixed
     reads/writes to disjoint per-thread byte slots; every thread verifies
     its own writes, and a final sweep checks global consistency. *)
  let r = make_rig ~frames:24 ~max_frames:24 ~file_pages:256 () in
  let eng = Sim.Engine.create () in
  let region = ref None in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Aquila.Context.enter_thread r.ctx;
         region := Some (Aquila.Context.mmap r.ctx r.file ~npages:200 ())));
  Sim.Engine.run eng;
  let expected = Array.make_matrix 8 200 (-1) in
  for t = 0 to 7 do
    let rng = Sim.Rng.create (100 + t) in
    ignore
      (Sim.Engine.spawn eng ~core:t (fun () ->
           Aquila.Context.enter_thread r.ctx;
           let reg = Option.get !region in
           for _ = 1 to 300 do
             let page = Sim.Rng.int rng 200 in
             let off = (page * Hw.Defs.page_size) + (t * 8) in
             if Sim.Rng.bool rng then begin
               let v = Sim.Rng.int rng 200 in
               Aquila.Context.write r.ctx reg ~off
                 ~src:(Bytes.make 1 (Char.chr (32 + v)));
               expected.(t).(page) <- v
             end
             else begin
               let dst = Bytes.create 1 in
               Aquila.Context.read r.ctx reg ~off ~len:1 ~dst;
               let want = expected.(t).(page) in
               let got = Char.code (Bytes.get dst 0) in
               if want >= 0 then
                 Alcotest.(check int)
                   (Printf.sprintf "thr %d page %d" t page)
                   (32 + want) got
             end
           done))
  done;
  Sim.Engine.run eng;
  (* final global verification *)
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let reg = Option.get !region in
         for t = 0 to 7 do
           for page = 0 to 199 do
             if expected.(t).(page) >= 0 then begin
               let dst = Bytes.create 1 in
               Aquila.Context.read r.ctx reg
                 ~off:((page * Hw.Defs.page_size) + (t * 8))
                 ~len:1 ~dst;
               Alcotest.(check int)
                 (Printf.sprintf "final thr %d page %d" t page)
                 (32 + expected.(t).(page))
                 (Char.code (Bytes.get dst 0))
             end
           done
         done));
  Sim.Engine.run eng;
  Alcotest.(check bool) "heavy eviction traffic" true
    (Mcache.Dram_cache.evictions (Aquila.Context.cache r.ctx) > 100)

let simulation_is_deterministic () =
  let run () =
    let r = make_rig ~frames:24 ~max_frames:24 ~file_pages:256 () in
    let eng = Sim.Engine.create () in
    for t = 0 to 3 do
      let rng = Sim.Rng.create (7 + t) in
      ignore
        (Sim.Engine.spawn eng ~core:t (fun () ->
             Aquila.Context.enter_thread r.ctx;
             let reg = Aquila.Context.mmap r.ctx r.file ~npages:128 () in
             for _ = 1 to 200 do
               Aquila.Context.touch r.ctx reg ~page:(Sim.Rng.int rng 128)
                 ~write:(Sim.Rng.bool rng)
             done))
    done;
    Sim.Engine.run eng;
    (Sim.Engine.now eng, Aquila.Context.faults r.ctx,
     Mcache.Dram_cache.evictions (Aquila.Context.cache r.ctx))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical replay" true (a = b)

let () =
  Alcotest.run "aquila"
    [
      ( "vma",
        [
          Alcotest.test_case "insert/lookup" `Quick vma_insert_lookup;
          Alcotest.test_case "overlap rejected" `Quick vma_rejects_overlap;
          Alcotest.test_case "remove" `Quick vma_remove;
          QCheck_alcotest.to_alcotest vma_lookup_vs_fresh;
        ] );
      ("syscalls", [ Alcotest.test_case "interception" `Quick syscall_counters ]);
      ( "context",
        [
          Alcotest.test_case "integrity across evictions" `Quick rw_roundtrip_across_evictions;
          Alcotest.test_case "hits are free" `Quick hits_are_free;
          Alcotest.test_case "dirty tracking refault" `Quick write_after_read_faults_again;
          Alcotest.test_case "munmap keeps cache" `Quick munmap_keeps_cache;
          Alcotest.test_case "msync persists" `Quick msync_persists;
          Alcotest.test_case "madvise readahead" `Quick madvise_controls_readahead;
          Alcotest.test_case "mmap bounds" `Quick mmap_bounds;
          Alcotest.test_case "segfault" `Quick segfault_outside_mapping;
          Alcotest.test_case "dynamic cache resize" `Quick resize_cache_via_hypervisor;
          Alcotest.test_case "ept lazily mapped" `Quick ept_faults_charged_lazily;
          Alcotest.test_case "kmmap trap cost" `Quick kmmap_has_pricier_traps;
          Alcotest.test_case "mprotect" `Quick mprotect_write_protects;
          Alcotest.test_case "mremap" `Quick mremap_grows_without_copies;
          QCheck_alcotest.to_alcotest data_plane_model;
          Alcotest.test_case "concurrent torture" `Quick concurrent_torture;
          Alcotest.test_case "determinism" `Quick simulation_is_deterministic;
        ] );
    ]
