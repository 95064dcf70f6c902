(* Tests for the user-space block cache baseline (lib/uspace). *)

let psz = Hw.Defs.page_size
let checki = Alcotest.(check int)

type rig = { uc : Uspace.User_cache.t; fd : Linux_sim.Readwrite.fd }

let make_rig ?(capacity = 64) ?(file_pages = 256) () =
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  let fd =
    Linux_sim.Readwrite.open_direct ~access
      ~translate:(fun p -> if p < file_pages then Some p else None)
      ~size_pages:file_pages ~staging:(Sdevice.Bufpool.pages ())
  in
  let uc =
    Uspace.User_cache.create
      (Uspace.User_cache.default_config ~capacity_pages:capacity)
  in
  Uspace.User_cache.register_file uc ~file_id:1 ~fd;
  { uc; fd }

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng

let hit_miss_accounting () =
  let r = make_rig () in
  in_sim (fun () ->
      let dst = Bytes.create 16 in
      Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:16 ~dst;
      checki "first is a miss" 1 (Uspace.User_cache.misses r.uc);
      Uspace.User_cache.read r.uc ~file_id:1 ~off:100 ~len:16 ~dst;
      checki "same block hits" 1 (Uspace.User_cache.hits r.uc);
      checki "one device read" 1 (Linux_sim.Readwrite.reads r.fd))

let write_through_and_cached_copy () =
  let r = make_rig () in
  in_sim (fun () ->
      let block = Bytes.make psz 'W' in
      Uspace.User_cache.write r.uc ~file_id:1 ~off:(3 * psz) ~src:block;
      checki "went to the device" 1 (Linux_sim.Readwrite.writes r.fd);
      let dst = Bytes.create 8 in
      Uspace.User_cache.read r.uc ~file_id:1 ~off:(3 * psz) ~len:8 ~dst;
      Alcotest.(check string) "reads back" "WWWWWWWW" (Bytes.to_string dst))

let capacity_bounded () =
  let r = make_rig ~capacity:32 () in
  in_sim (fun () ->
      let dst = Bytes.create 1 in
      for p = 0 to 127 do
        Uspace.User_cache.read r.uc ~file_id:1 ~off:(p * psz) ~len:1 ~dst
      done;
      Alcotest.(check bool) "resident <= capacity" true
        (Uspace.User_cache.resident r.uc <= 32);
      checki "all were misses (scan)" 128 (Uspace.User_cache.misses r.uc))

let concurrent_misses_are_safe () =
  (* Both threads read the same cold block; data must be correct and the
     cache must end with one resident copy. *)
  let r = make_rig () in
  in_sim (fun () ->
      let src = Bytes.make psz 'C' in
      Uspace.User_cache.write r.uc ~file_id:1 ~off:(7 * psz) ~src;
      Uspace.User_cache.invalidate_file r.uc ~file_id:1);
  let eng = Sim.Engine.create () in
  for core = 0 to 1 do
    ignore
      (Sim.Engine.spawn eng ~core (fun () ->
           let dst = Bytes.create 4 in
           Uspace.User_cache.read r.uc ~file_id:1 ~off:(7 * psz) ~len:4 ~dst;
           Alcotest.(check string) "correct data" "CCCC" (Bytes.to_string dst)))
  done;
  Sim.Engine.run eng

let invalidate_file_clears () =
  let r = make_rig () in
  in_sim (fun () ->
      let dst = Bytes.create 1 in
      Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst;
      Uspace.User_cache.invalidate_file r.uc ~file_id:1;
      checki "empty" 0 (Uspace.User_cache.resident r.uc);
      Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst;
      checki "re-read misses" 2 (Uspace.User_cache.misses r.uc))

let lookups_cost_cycles_even_on_hits () =
  (* The paper's central claim about user-space caches: hits still burn
     CPU.  100 hits must advance the virtual clock substantially. *)
  let r = make_rig () in
  let eng = Sim.Engine.create () in
  let dt = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let dst = Bytes.create 1 in
         Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst;
         let t0 = Sim.Engine.now_f () in
         for _ = 1 to 100 do
           Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst
         done;
         dt := Int64.sub (Sim.Engine.now_f ()) t0));
  Sim.Engine.run eng;
  Alcotest.(check bool) "hits cost >= 100 x lookup_cost" true
    (!dt >= Int64.mul 100L 2800L)

let () =
  Alcotest.run "uspace"
    [
      ( "user cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick hit_miss_accounting;
          Alcotest.test_case "write-through" `Quick write_through_and_cached_copy;
          Alcotest.test_case "capacity bounded" `Quick capacity_bounded;
          Alcotest.test_case "concurrent misses" `Quick concurrent_misses_are_safe;
          Alcotest.test_case "invalidate file" `Quick invalidate_file_clears;
          Alcotest.test_case "hits are not free" `Quick lookups_cost_cycles_even_on_hits;
        ] );
    ]
