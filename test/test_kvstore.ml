(* Tests for the key-value stores (lib/kvstore): bloom, memtable, SSTs,
   RocksDB-style LSM and Kreon-style log+index, over real simulated
   storage. *)

let psz = Hw.Defs.page_size
let checki = Alcotest.(check int)

(* ---- Bloom ---- *)

let bloom_no_false_negatives =
  QCheck.Test.make ~name:"bloom has no false negatives" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) printable_string)
    (fun keys ->
      let b = Kvstore.Bloom.create ~expected_keys:(List.length keys) in
      List.iter (Kvstore.Bloom.add b) keys;
      List.for_all (Kvstore.Bloom.mem b) keys)

let bloom_fp_rate () =
  let b = Kvstore.Bloom.create ~expected_keys:1000 in
  for i = 0 to 999 do
    Kvstore.Bloom.add b (Printf.sprintf "key-%d" i)
  done;
  let fp = ref 0 in
  for i = 1000 to 10999 do
    if Kvstore.Bloom.mem b (Printf.sprintf "key-%d" i) then incr fp
  done;
  Alcotest.(check bool)
    (Printf.sprintf "false positives ~1%% (got %d/10000)" !fp)
    true (!fp < 500)

let bloom_serialization () =
  let b = Kvstore.Bloom.create ~expected_keys:100 in
  List.iter (Kvstore.Bloom.add b) [ "alpha"; "beta"; "gamma" ];
  let b2 = Kvstore.Bloom.deserialize (Kvstore.Bloom.serialize b) in
  Alcotest.(check bool) "roundtrip membership" true
    (List.for_all (Kvstore.Bloom.mem b2) [ "alpha"; "beta"; "gamma" ]);
  checki "bits preserved" (Kvstore.Bloom.bits b) (Kvstore.Bloom.bits b2);
  Alcotest.check_raises "malformed" (Invalid_argument "Bloom.deserialize: too short")
    (fun () -> ignore (Kvstore.Bloom.deserialize (Bytes.create 3)))

(* ---- Memtable ---- *)

let memtable_ops () =
  let m = Kvstore.Memtable.create () in
  Kvstore.Memtable.put m "b" "2";
  Kvstore.Memtable.put m "a" "1";
  Kvstore.Memtable.put m "c" "3";
  Kvstore.Memtable.put m "b" "2'";
  Alcotest.(check (option string)) "get" (Some "2'") (Kvstore.Memtable.get m "b");
  checki "entries" 3 (Kvstore.Memtable.entries m);
  Alcotest.(check (list (pair string string))) "sorted"
    [ ("a", "1"); ("b", "2'"); ("c", "3") ]
    (Kvstore.Memtable.to_sorted_list m);
  Alcotest.(check (list (pair string string))) "range"
    [ ("b", "2'"); ("c", "3") ]
    (Kvstore.Memtable.range m ~start:"b" ~n:5);
  checki "bytes tracked" 7 (Kvstore.Memtable.mem_bytes m)

(* ---- Env / SST rig ---- *)

let make_env () =
  let store = Blobstore.Store.create ~capacity_pages:65536 () in
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (65536 * psz)) () in
  let access = Sdevice.Access.dax_pmem Hw.Costs.default pmem in
  let machine = Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  let pc =
    Linux_sim.Page_cache.create ~costs:Hw.Costs.default ~machine ~page_table:pt
      (Linux_sim.Page_cache.default_config ~frames:1024)
  in
  ignore pc;
  let ucache =
    Uspace.User_cache.create (Uspace.User_cache.default_config ~capacity_pages:512)
  in
  Kvstore.Env.direct_ucache ~store ~costs:Hw.Costs.default ~device_access:access
    ~ucache

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng

let records n = List.init n (fun i -> (Printf.sprintf "key%06d" i, Printf.sprintf "value-%06d" i))

let sst_build_get () =
  let env = make_env () in
  in_sim (fun () ->
      let recs = records 500 in
      let sst = Kvstore.Sst.build env ~name:"0001.sst" recs in
      let scratch = Kvstore.Sst.scratch () in
      checki "record count" 500 (Kvstore.Sst.nrecords sst);
      Alcotest.(check string) "first key" "key000000" (Kvstore.Sst.first_key sst);
      Alcotest.(check string) "last key" "key000499" (Kvstore.Sst.last_key sst);
      Alcotest.(check (option string)) "hit" (Some "value-000123")
        (Kvstore.Sst.get sst ~scratch "key000123");
      Alcotest.(check (option string)) "miss inside range" None
        (Kvstore.Sst.get sst ~scratch "key000123x");
      Alcotest.(check (option string)) "miss outside" None
        (Kvstore.Sst.get sst ~scratch "zzz"))

let sst_iter () =
  let env = make_env () in
  in_sim (fun () ->
      let sst = Kvstore.Sst.build env ~name:"0002.sst" (records 100) in
      let seen = ref [] in
      Kvstore.Sst.iter_from sst ~start:"key000095" ~f:(fun k _ ->
          seen := k :: !seen;
          true);
      Alcotest.(check (list string)) "tail in order"
        [ "key000095"; "key000096"; "key000097"; "key000098"; "key000099" ]
        (List.rev !seen))

let sst_property =
  (* Keys of 1-8 bytes over an alphabet holding 0x00 and 0xff share
     prefixes and need the in-place key compare to order bytes unsigned,
     like String.compare.  Values stay below a block: oversized records
     are rejected by design (see sst_rejects_oversized). *)
  QCheck.Test.make ~name:"sst get agrees with input map" ~count:20
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 100)
        (pair
           (string_gen_of_size (QCheck.Gen.int_range 1 8)
              (QCheck.Gen.oneofl [ '\000'; 'a'; 'b'; '\255' ]))
           (string_of_size (QCheck.Gen.int_range 0 1000))))
    (fun pairs ->
      let module Sm = Map.Make (String) in
      let m = List.fold_left (fun acc (k, v) -> Sm.add k ("v" ^ v) acc) Sm.empty pairs in
      (* every key, its strict prefixes and one-byte extensions (which
         fall between keys, and between blocks), and keys below and above
         the whole range *)
      let probes =
        String.make 9 '\255'
        :: List.concat_map
             (fun (k, _) ->
               k :: (k ^ "\000") :: (k ^ "a") :: (k ^ "\255")
               :: List.init (String.length k) (fun i -> String.sub k 0 i))
             (Sm.bindings m)
      in
      let ok = ref true in
      in_sim (fun () ->
          let env = make_env () in
          let sst = Kvstore.Sst.build env ~name:"p.sst" (Sm.bindings m) in
          let scratch = Kvstore.Sst.scratch () in
          List.iter
            (fun k -> if Kvstore.Sst.get sst ~scratch k <> Sm.find_opt k m then ok := false)
            probes);
      !ok)

let sst_rejects_oversized () =
  let env = make_env () in
  Alcotest.check_raises "record bigger than a block"
    (Invalid_argument "Sst: record larger than a block") (fun () ->
      in_sim (fun () ->
          ignore
            (Kvstore.Sst.build env ~name:"big.sst"
               [ ("k", String.make 5000 'x') ])))

(* ---- On-device layout ---- *)

(* Two SSTs built in one fiber over a 1024-page pmem: [a] has 218 data
   pages and a 2-page index, [b] 32 data pages and a 2-page filter.  The
   device bytes are pinned, and every key is probed, so multi-page index
   and filter reads are decoded too. *)
let sst_layout_pinned () =
  let store = Blobstore.Store.create ~capacity_pages:1024 () in
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (1024 * psz)) () in
  let access = Sdevice.Access.dax_pmem Hw.Costs.default pmem in
  let ucache =
    Uspace.User_cache.create (Uspace.User_cache.default_config ~capacity_pages:512)
  in
  let env =
    Kvstore.Env.direct_ucache ~store ~costs:Hw.Costs.default ~device_access:access ~ucache
  in
  let a_recs =
    List.init 1000 (fun i ->
        ( Printf.sprintf "key%06d%s" i (String.make (8 + (i mod 7)) 'x'),
          String.init (i * 37 mod 1500) (fun j -> Char.chr (33 + ((i + j) mod 90))) ))
  in
  let b_recs =
    List.init 4000 (fun i ->
        ( Printf.sprintf "k%05d" i,
          String.init (i mod 41) (fun j -> Char.chr (97 + (((i * 7) + j) mod 26))) ))
  in
  let wrong = ref [] in
  in_sim (fun () ->
      let a = Kvstore.Sst.build env ~name:"a.sst" a_recs in
      let b = Kvstore.Sst.build env ~name:"b.sst" b_recs in
      checki "a data pages" 218 (Kvstore.Sst.data_pages a);
      checki "a total pages" 221 (Kvstore.Sst.total_pages a);
      checki "b data pages" 32 (Kvstore.Sst.data_pages b);
      checki "b total pages" 35 (Kvstore.Sst.total_pages b);
      let scratch = Kvstore.Sst.scratch () in
      List.iter
        (fun (sst, recs) ->
          List.iter
            (fun (k, v) ->
              if Kvstore.Sst.get sst ~scratch k <> Some v then wrong := k :: !wrong;
              List.iter
                (fun miss ->
                  if Kvstore.Sst.get sst ~scratch miss <> None then wrong := miss :: !wrong)
                [ k ^ "!"; k ^ "0" ])
            recs)
        [ (a, a_recs); (b, b_recs) ]);
  Alcotest.(check (list string)) "every key found, every near miss absent" [] !wrong;
  let device = Buffer.create (1024 * psz) and page = Bytes.create psz in
  for p = 0 to 1023 do
    Sdevice.Pagestore.read_page (Sdevice.Pmem.store pmem) ~page:p ~dst:page;
    Buffer.add_bytes device page
  done;
  Alcotest.(check string) "device bytes" "2a64165518f1f2df2e692021490cb80f"
    (Digest.to_hex (Digest.string (Buffer.contents device)))

(* An SST built after a larger one in the same environment reuses the
   larger one's staging buffers (data in the same 256-page class, index
   and filter too); its device pages must hold exactly what it writes
   when built first in a fresh store — no stale bytes in block tails, the
   index's end or the filter's tail. *)
let sst_reused_staging_is_clean () =
  let recs ~n ~seed =
    List.init n (fun i ->
        ( Printf.sprintf "key%06d%s" i (String.make (8 + (i mod 7)) 'x'),
          String.init ((i * seed) mod 1500) (fun j -> Char.chr (33 + ((i + j + seed) mod 90))) ))
  in
  let big = recs ~n:1000 ~seed:37 and small = recs ~n:750 ~seed:29 in
  (* builds [ssts] in order in a fresh store and returns the MD5 of the
     last one's device pages, with its shape *)
  let last_sst_digest ssts =
    let store = Blobstore.Store.create ~capacity_pages:1024 () in
    let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (1024 * psz)) () in
    let env =
      Kvstore.Env.direct_ucache ~store ~costs:Hw.Costs.default
        ~device_access:(Sdevice.Access.dax_pmem Hw.Costs.default pmem)
        ~ucache:
          (Uspace.User_cache.create (Uspace.User_cache.default_config ~capacity_pages:512))
    in
    let last = ref None in
    in_sim (fun () ->
        List.iteri
          (fun i r -> last := Some (Kvstore.Sst.build env ~name:(Printf.sprintf "%d.sst" i) r))
          ssts);
    let sst = Option.get !last in
    let blob = Blobstore.Store.open_blob store (List.length ssts) in
    let bytes = Buffer.create (Kvstore.Sst.total_pages sst * psz) and page = Bytes.create psz in
    for p = 0 to Kvstore.Sst.total_pages sst - 1 do
      Sdevice.Pagestore.read_page (Sdevice.Pmem.store pmem)
        ~page:(Blobstore.Store.device_page blob p) ~dst:page;
      Buffer.add_bytes bytes page
    done;
    (Kvstore.Sst.data_pages sst, Kvstore.Sst.total_pages sst,
     Digest.to_hex (Digest.string (Buffer.contents bytes)))
  in
  let big_data, big_total, _ = last_sst_digest [ big ] in
  let data, total, fresh = last_sst_digest [ small ] in
  let _, _, reused = last_sst_digest [ big; small ] in
  checki "big data pages" 218 big_data;
  checki "big index + filter pages" 3 (big_total - big_data);
  Alcotest.(check bool) "small data in the big one's class" true (data > 128 && data < big_data);
  checki "small index + filter pages" 3 (total - data);
  Alcotest.(check string) "same device bytes as built first" fresh reused

(* ---- RocksDB ---- *)

let rocksdb_put_get_flush () =
  let env = make_env () in
  in_sim (fun () ->
      let db = Kvstore.Rocksdb_sim.create env () in
      for i = 0 to 299 do
        Kvstore.Rocksdb_sim.put db (Printf.sprintf "k%05d" i) (Printf.sprintf "v%d" i)
      done;
      Kvstore.Rocksdb_sim.flush db;
      Alcotest.(check bool) "ssts exist" true (Kvstore.Rocksdb_sim.sst_count db > 0);
      Alcotest.(check (option string)) "get after flush" (Some "v123")
        (Kvstore.Rocksdb_sim.get db "k00123");
      (* update wins over the flushed version *)
      Kvstore.Rocksdb_sim.put db "k00123" "NEW";
      Alcotest.(check (option string)) "memtable shadows" (Some "NEW")
        (Kvstore.Rocksdb_sim.get db "k00123");
      Kvstore.Rocksdb_sim.flush db;
      Alcotest.(check (option string)) "newest survives compaction" (Some "NEW")
        (Kvstore.Rocksdb_sim.get db "k00123"))

let rocksdb_compaction_keeps_data () =
  let env = make_env () in
  in_sim (fun () ->
      let small_cfg =
        {
          Kvstore.Rocksdb_sim.default_config with
          Kvstore.Rocksdb_sim.memtable_limit_bytes = 4096;
          l0_limit = 2;
          sst_pages = 8;
        }
      in
      let db = Kvstore.Rocksdb_sim.create env ~config:small_cfg () in
      let n = 600 in
      for i = 0 to n - 1 do
        Kvstore.Rocksdb_sim.put db
          (Printf.sprintf "k%05d" ((i * 7919) mod n))
          (Printf.sprintf "val%05d" ((i * 7919) mod n))
      done;
      (* several flushes + compactions happened along the way *)
      let sizes = Kvstore.Rocksdb_sim.level_sizes db in
      Alcotest.(check bool) "multiple levels populated" true
        (List.length (List.filter (fun s -> s > 0) sizes) >= 1);
      for i = 0 to n - 1 do
        match Kvstore.Rocksdb_sim.get db (Printf.sprintf "k%05d" i) with
        | Some v ->
            Alcotest.(check string) (Printf.sprintf "value %d" i)
              (Printf.sprintf "val%05d" i) v
        | None -> Alcotest.fail (Printf.sprintf "lost key %d" i)
      done)

let rocksdb_bulk_load_and_scan () =
  let env = make_env () in
  in_sim (fun () ->
      let db = Kvstore.Rocksdb_sim.create env () in
      Kvstore.Rocksdb_sim.bulk_load db (records 1000);
      checki "records" 1000 (Kvstore.Rocksdb_sim.record_count db);
      let scan = Kvstore.Rocksdb_sim.scan db ~start:"key000500" ~n:5 in
      Alcotest.(check (list string)) "scan keys"
        [ "key000500"; "key000501"; "key000502"; "key000503"; "key000504" ]
        (List.map fst scan);
      (* scan merges the memtable *)
      Kvstore.Rocksdb_sim.put db "key000501x" "inserted";
      let scan2 = Kvstore.Rocksdb_sim.scan db ~start:"key000501" ~n:3 in
      Alcotest.(check (list string)) "scan sees memtable"
        [ "key000501"; "key000501x"; "key000502" ]
        (List.map fst scan2))

(* A zero key length ends an SST block, and the empty key sorts first,
   so a stored empty key would hide its whole SST. *)
let rocksdb_rejects_empty_key () =
  let env = make_env () in
  in_sim (fun () ->
      let db = Kvstore.Rocksdb_sim.create env () in
      let empty_key = Invalid_argument "Sst: empty key" in
      Alcotest.check_raises "put" empty_key (fun () -> Kvstore.Rocksdb_sim.put db "" "v");
      Alcotest.check_raises "bulk_load" empty_key (fun () ->
          Kvstore.Rocksdb_sim.bulk_load db [ ("", "v"); ("a", "v") ]);
      Alcotest.check_raises "Sst.build" empty_key (fun () ->
          ignore (Kvstore.Sst.build env ~name:"e.sst" [ ("", "v") ]));
      for i = 0 to 9 do
        Kvstore.Rocksdb_sim.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i)
      done;
      Kvstore.Rocksdb_sim.flush db;
      Alcotest.(check (option string)) "get after flush" (Some "v5")
        (Kvstore.Rocksdb_sim.get db "k005");
      checki "scan from the empty key" 10
        (List.length (Kvstore.Rocksdb_sim.scan db ~start:"" ~n:100));
      checki "record count" 10 (Kvstore.Rocksdb_sim.record_count db))

(* A record must fit one block with its 6-byte header.  The put itself
   must fail: a later flush is too late, as other fibers wait on it. *)
let rocksdb_rejects_oversized () =
  let env = make_env () in
  let eng = Sim.Engine.create () in
  let db = Sim.Sync.Ivar.create () and flushed = ref 0 in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env () in
         Alcotest.check_raises "put" (Invalid_argument "Sst: record larger than a block")
           (fun () -> Kvstore.Rocksdb_sim.put d "big" (String.make 4088 'x'));
         Kvstore.Rocksdb_sim.put d "fit" (String.make 4087 'x');
         Kvstore.Rocksdb_sim.flush d;
         incr flushed;
         Sim.Sync.Ivar.fill db d));
  ignore
    (Sim.Engine.spawn eng ~core:1 (fun () ->
         let d = Sim.Sync.Ivar.read db in
         Kvstore.Rocksdb_sim.put d "later" "v";
         Kvstore.Rocksdb_sim.flush d;
         incr flushed;
         Alcotest.(check (option string)) "a full-block record" (Some (String.make 4087 'x'))
           (Kvstore.Rocksdb_sim.get d "fit");
         Alcotest.(check (option string)) "rejected" None (Kvstore.Rocksdb_sim.get d "big")));
  Sim.Engine.run eng;
  checki "both flushes completed" 2 !flushed;
  checki "no fiber left" 0 (Sim.Engine.live_fibers eng)

(* Every SST write fails permanently during one flush: the flush raises,
   and must not keep the write lock. *)
let rocksdb_failed_flush_releases_lock () =
  let env = make_env () in
  let eng = Sim.Engine.create () in
  let db = Sim.Sync.Ivar.create () and raised = ref false and finished = ref false in
  let broken =
    Fault.Plan.make
      { Fault.Plan.default with Fault.Plan.seed = 5; write_error = 1.0; permanent = 1.0 }
  in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env () in
         for i = 0 to 99 do
           Kvstore.Rocksdb_sim.put d (Printf.sprintf "k%03d" i) "v"
         done;
         (try Fault.with_plan broken (fun () -> Kvstore.Rocksdb_sim.flush d)
          with Fault.Io_error _ -> raised := true);
         Sim.Sync.Ivar.fill db d));
  ignore
    (Sim.Engine.spawn eng ~core:1 (fun () ->
         let d = Sim.Sync.Ivar.read db in
         Kvstore.Rocksdb_sim.put d "late" "v";
         Kvstore.Rocksdb_sim.flush d;
         finished := true;
         Alcotest.(check (option string)) "flushed after the failure" (Some "v")
           (Kvstore.Rocksdb_sim.get d "k050")));
  Sim.Engine.run eng;
  Alcotest.(check bool) "first flush raised" true !raised;
  Alcotest.(check bool) "second flush completed" true !finished;
  checki "no fiber left" 0 (Sim.Engine.live_fibers eng)

let rocksdb_missing_key () =
  let env = make_env () in
  in_sim (fun () ->
      let db = Kvstore.Rocksdb_sim.create env () in
      Kvstore.Rocksdb_sim.bulk_load db (records 100);
      Alcotest.(check (option string)) "absent" None
        (Kvstore.Rocksdb_sim.get db "nope"))

(* ---- Kreon ---- *)

let make_kreon ?(frames = 256) ~expected () =
  let ctx = Aquila.Context.create (Aquila.Context.default_config ~cache_frames:frames) in
  let store = Blobstore.Store.create ~capacity_pages:65536 () in
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (65536 * psz)) () in
  let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
  fun () ->
    Aquila.Context.enter_thread ctx;
    Kvstore.Kreon_sim.create ~ctx ~access ~store ~expected_records:expected
      ~value_bytes:64 ()

let kreon_put_get_spill () =
  let mk = make_kreon ~expected:2000 () in
  in_sim (fun () ->
      let db = mk () in
      for i = 0 to 999 do
        Kvstore.Kreon_sim.put db (Printf.sprintf "k%05d" i) (Printf.sprintf "v%05d" i)
      done;
      Kvstore.Kreon_sim.spill db;
      Alcotest.(check bool) "level populated" true
        (List.exists (fun n -> n > 0) (Kvstore.Kreon_sim.level_entries db));
      for i = 0 to 999 do
        Alcotest.(check (option string)) (Printf.sprintf "get %d" i)
          (Some (Printf.sprintf "v%05d" i))
          (Kvstore.Kreon_sim.get db (Printf.sprintf "k%05d" i))
      done;
      Alcotest.(check (option string)) "absent" None (Kvstore.Kreon_sim.get db "zzz");
      Alcotest.(check bool) "log grew" true (Kvstore.Kreon_sim.log_bytes db > 0))

let kreon_update_wins () =
  let mk = make_kreon ~expected:500 () in
  in_sim (fun () ->
      let db = mk () in
      Kvstore.Kreon_sim.put db "key" "old";
      Kvstore.Kreon_sim.spill db;
      Kvstore.Kreon_sim.put db "key" "new";
      Alcotest.(check (option string)) "L0 shadows L1" (Some "new")
        (Kvstore.Kreon_sim.get db "key");
      Kvstore.Kreon_sim.spill db;
      Alcotest.(check (option string)) "newest survives merge" (Some "new")
        (Kvstore.Kreon_sim.get db "key"))

let kreon_scan () =
  let mk = make_kreon ~expected:500 () in
  in_sim (fun () ->
      let db = mk () in
      for i = 0 to 99 do
        Kvstore.Kreon_sim.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%03d" i)
      done;
      Kvstore.Kreon_sim.spill db;
      for i = 100 to 109 do
        Kvstore.Kreon_sim.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%03d" i)
      done;
      let scan = Kvstore.Kreon_sim.scan db ~start:"k095" ~n:8 in
      Alcotest.(check (list string)) "scan crosses L0/L1"
        [ "k095"; "k096"; "k097"; "k098"; "k099"; "k100"; "k101"; "k102" ]
        (List.map fst scan))

(* ---- Merge iterators ---- *)

let iter_merge_priority () =
  let newest = Kvstore.Kv_iter.of_sorted_list [ ("a", "new"); ("c", "new") ] in
  let oldest = Kvstore.Kv_iter.of_sorted_list [ ("a", "old"); ("b", "old") ] in
  let it = Kvstore.Kv_iter.merge [ newest; oldest ] in
  Alcotest.(check (list (pair string string))) "newest shadows"
    [ ("a", "new"); ("b", "old"); ("c", "new") ]
    (Kvstore.Kv_iter.take it 10);
  Alcotest.(check bool) "exhausted" true (Kvstore.Kv_iter.next it = None)

let iter_sst_is_lazy () =
  let env = make_env () in
  in_sim (fun () ->
      let sst = Kvstore.Sst.build env ~name:"lazy.sst" (records 600) in
      let t0 = Sim.Engine.now_f () in
      let it = Kvstore.Kv_iter.of_sst sst ~start:"key000000" in
      ignore (Kvstore.Kv_iter.take it 3);
      let early = Int64.sub (Sim.Engine.now_f ()) t0 in
      (* draining everything costs far more than the first few *)
      ignore (Kvstore.Kv_iter.take it 1000);
      let full = Int64.sub (Sim.Engine.now_f ()) t0 in
      Alcotest.(check bool)
        (Printf.sprintf "lazy block reads (%Ld vs %Ld)" early full)
        true
        (Int64.mul early 2L < full))

let iter_equals_scan =
  QCheck.Test.make ~name:"rocksdb iterator agrees with full materialization" ~count:10
    QCheck.(pair (int_range 0 900) (int_range 1 30))
    (fun (startk, n) ->
      let ok = ref true in
      in_sim (fun () ->
          let env = make_env () in
          let db = Kvstore.Rocksdb_sim.create env () in
          Kvstore.Rocksdb_sim.bulk_load db (records 500);
          (* add overlapping freshness in the memtable *)
          Kvstore.Rocksdb_sim.put db "key000100" "fresh";
          let start = Printf.sprintf "key%06d" startk in
          let via_scan = Kvstore.Rocksdb_sim.scan db ~start ~n in
          let via_iter =
            Kvstore.Kv_iter.take (Kvstore.Rocksdb_sim.iterator db ~start) n
          in
          if via_scan <> via_iter then ok := false;
          (* ascending and within range *)
          let rec ascending = function
            | (a, _) :: ((b, _) :: _ as tl) -> a < b && ascending tl
            | _ -> true
          in
          if not (ascending via_iter) then ok := false;
          List.iter (fun (k, _) -> if k < start then ok := false) via_iter);
      !ok)

(* ---- Btree ---- *)

let btree_rig () =
  (* a plain in-memory region accessor: the tree is storage-agnostic *)
  let backing = Bytes.make (4096 * 512) '\000' in
  {
    Kvstore.Btree.read =
      (fun ~off ~len ~dst -> Bytes.blit backing off dst 0 len);
    write = (fun ~off ~src -> Bytes.blit src 0 backing off (Bytes.length src));
  }

let btree_build_find () =
  in_sim (fun () ->
      let rw = btree_rig () in
      let entries = Array.init 1000 (fun i -> (Printf.sprintf "k%06d" (i * 3), i)) in
      let info = Kvstore.Btree.build rw ~base_page:4 entries in
      checki "count" 1000 info.Kvstore.Btree.count;
      Alcotest.(check bool) "multi-level" true (info.Kvstore.Btree.height >= 2);
      Alcotest.(check (option int)) "first" (Some 0) (Kvstore.Btree.find rw info "k000000");
      Alcotest.(check (option int)) "middle" (Some 500)
        (Kvstore.Btree.find rw info "k001500");
      Alcotest.(check (option int)) "last" (Some 999)
        (Kvstore.Btree.find rw info "k002997");
      Alcotest.(check (option int)) "between keys" None
        (Kvstore.Btree.find rw info "k000001");
      Alcotest.(check (option int)) "below range" None (Kvstore.Btree.find rw info "a");
      Alcotest.(check (option int)) "above range" None (Kvstore.Btree.find rw info "z"))

let btree_iter_from () =
  in_sim (fun () ->
      let rw = btree_rig () in
      let entries = Array.init 300 (fun i -> (Printf.sprintf "k%04d" i, i)) in
      let info = Kvstore.Btree.build rw ~base_page:2 entries in
      let seen = ref [] in
      Kvstore.Btree.iter_from rw info ~start:"k0295" ~f:(fun k _ ->
          seen := k :: !seen;
          true);
      Alcotest.(check (list string)) "tail across leaves"
        [ "k0295"; "k0296"; "k0297"; "k0298"; "k0299" ]
        (List.rev !seen))

let btree_validates_input () =
  in_sim (fun () ->
      let rw = btree_rig () in
      Alcotest.check_raises "unsorted"
        (Invalid_argument "Btree.build: entries must be strictly ascending")
        (fun () -> ignore (Kvstore.Btree.build rw ~base_page:0 [| ("b", 1); ("a", 2) |]));
      Alcotest.check_raises "empty" (Invalid_argument "Btree.build: empty") (fun () ->
          ignore (Kvstore.Btree.build rw ~base_page:0 [||])))

let btree_model =
  QCheck.Test.make ~name:"btree find/iter agree with a Map" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 400) (int_bound 2000))
    (fun keys ->
      let module Sm = Map.Make (String) in
      let m =
        List.fold_left
          (fun acc k -> Sm.add (Printf.sprintf "k%05d" k) k acc)
          Sm.empty keys
      in
      let entries = Array.of_list (Sm.bindings m) in
      let ok = ref true in
      in_sim (fun () ->
          let rw = btree_rig () in
          let info = Kvstore.Btree.build rw ~base_page:1 entries in
          Sm.iter
            (fun k v -> if Kvstore.Btree.find rw info k <> Some v then ok := false)
            m;
          (* full iteration reproduces the sorted bindings *)
          let out = ref [] in
          Kvstore.Btree.iter_from rw info ~start:"" ~f:(fun k v ->
              out := (k, v) :: !out;
              true);
          if List.rev !out <> Sm.bindings m then ok := false);
      !ok)

let btree_info_roundtrip () =
  let i =
    { Kvstore.Btree.root_page = 42; height = 3; count = 777; leaf0 = 10; nleaves = 12;
      pages_used = 15 }
  in
  let b = Kvstore.Btree.serialize_info i in
  Alcotest.(check bool) "roundtrip" true
    (Kvstore.Btree.deserialize_info b ~pos:0 = i)

(* ---- Kreon durability ---- *)

let kreon_crash_recovery () =
  let ctx = Aquila.Context.create (Aquila.Context.default_config ~cache_frames:256) in
  let store = Blobstore.Store.create ~capacity_pages:65536 () in
  let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (65536 * psz)) () in
  let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
  in_sim (fun () ->
      Aquila.Context.enter_thread ctx;
      let db =
        Kvstore.Kreon_sim.create ~ctx ~access ~store ~expected_records:2000
          ~value_bytes:64 ()
      in
      for i = 0 to 499 do
        Kvstore.Kreon_sim.put db (Printf.sprintf "k%05d" i) (Printf.sprintf "v%05d" i)
      done;
      Kvstore.Kreon_sim.spill db;
      (* committed-but-unspilled updates: replayed from the log *)
      Kvstore.Kreon_sim.put db "k00007" "updated";
      Kvstore.Kreon_sim.put db "k99999" "fresh";
      Kvstore.Kreon_sim.msync db;
      (* uncommitted update: must vanish *)
      Kvstore.Kreon_sim.put db "k00008" "doomed";
      (* power loss *)
      Mcache.Dram_cache.crash (Aquila.Context.cache ctx);
      Kvstore.Kreon_sim.recover db;
      Alcotest.(check (option string)) "spilled data survives" (Some "v00123")
        (Kvstore.Kreon_sim.get db "k00123");
      Alcotest.(check (option string)) "committed log replayed" (Some "updated")
        (Kvstore.Kreon_sim.get db "k00007");
      Alcotest.(check (option string)) "committed insert replayed" (Some "fresh")
        (Kvstore.Kreon_sim.get db "k99999");
      Alcotest.(check (option string)) "uncommitted update lost" (Some "v00008")
        (Kvstore.Kreon_sim.get db "k00008"))

(* ---- Env equivalence ---- *)

let env_backends_agree () =
  (* The same workload produces identical results on all three envs. *)
  let run_ops env =
    let out = ref [] in
    in_sim (fun () ->
        let db = Kvstore.Rocksdb_sim.create env () in
        Kvstore.Rocksdb_sim.bulk_load db (records 200);
        Kvstore.Rocksdb_sim.put db "key000050" "overridden";
        out :=
          [
            Kvstore.Rocksdb_sim.get db "key000050";
            Kvstore.Rocksdb_sim.get db "key000199";
            Kvstore.Rocksdb_sim.get db "missing";
          ]);
    !out
  in
  let ucache_env = make_env () in
  let linux_env =
    let store = Blobstore.Store.create ~capacity_pages:65536 () in
    let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (65536 * psz)) () in
    let access =
      Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.In_kernel pmem
    in
    let msys =
      Linux_sim.Mmap_sys.create (Linux_sim.Mmap_sys.default_config ~cache_frames:1024)
    in
    Kvstore.Env.linux_mmap ~store ~msys ~device_access:access
  in
  let aquila_env =
    let store = Blobstore.Store.create ~capacity_pages:65536 () in
    let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (65536 * psz)) () in
    let ctx = Aquila.Context.create (Aquila.Context.default_config ~cache_frames:1024) in
    let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
    Kvstore.Env.aquila ~store ~ctx ~device_access:access
  in
  let a = run_ops ucache_env and b = run_ops linux_env and c = run_ops aquila_env in
  Alcotest.(check (list (option string))) "ucache = linux" a b;
  Alcotest.(check (list (option string))) "linux = aquila" b c;
  Alcotest.(check (list (option string))) "expected values"
    [ Some "overridden"; Some "value-000199"; None ]
    a

let () =
  Alcotest.run "kvstore"
    [
      ( "bloom",
        [
          QCheck_alcotest.to_alcotest bloom_no_false_negatives;
          Alcotest.test_case "fp rate" `Quick bloom_fp_rate;
          Alcotest.test_case "serialization" `Quick bloom_serialization;
        ] );
      ("memtable", [ Alcotest.test_case "ops" `Quick memtable_ops ]);
      ( "sst",
        [
          Alcotest.test_case "build/get" `Quick sst_build_get;
          Alcotest.test_case "iter" `Quick sst_iter;
          Alcotest.test_case "oversized record" `Quick sst_rejects_oversized;
          QCheck_alcotest.to_alcotest sst_property;
          Alcotest.test_case "on-device layout pinned" `Quick sst_layout_pinned;
          Alcotest.test_case "reused staging leaks no stale bytes" `Quick
            sst_reused_staging_is_clean;
        ] );
      ( "rocksdb",
        [
          Alcotest.test_case "put/get/flush" `Quick rocksdb_put_get_flush;
          Alcotest.test_case "compaction keeps data" `Quick rocksdb_compaction_keeps_data;
          Alcotest.test_case "bulk load + scan" `Quick rocksdb_bulk_load_and_scan;
          Alcotest.test_case "missing key" `Quick rocksdb_missing_key;
          Alcotest.test_case "empty key rejected" `Quick rocksdb_rejects_empty_key;
          Alcotest.test_case "oversized record rejected" `Quick rocksdb_rejects_oversized;
          Alcotest.test_case "failed flush releases the write lock" `Quick
            rocksdb_failed_flush_releases_lock;
        ] );
      ( "iterators",
        [
          Alcotest.test_case "merge priority" `Quick iter_merge_priority;
          Alcotest.test_case "sst laziness" `Quick iter_sst_is_lazy;
          QCheck_alcotest.to_alcotest iter_equals_scan;
        ] );
      ( "btree",
        [
          Alcotest.test_case "build/find" `Quick btree_build_find;
          Alcotest.test_case "iter_from" `Quick btree_iter_from;
          Alcotest.test_case "input validation" `Quick btree_validates_input;
          Alcotest.test_case "info roundtrip" `Quick btree_info_roundtrip;
          QCheck_alcotest.to_alcotest btree_model;
        ] );
      ( "kreon",
        [
          Alcotest.test_case "put/get/spill" `Quick kreon_put_get_spill;
          Alcotest.test_case "update wins" `Quick kreon_update_wins;
          Alcotest.test_case "scan" `Quick kreon_scan;
          Alcotest.test_case "crash recovery" `Quick kreon_crash_recovery;
        ] );
      ("env", [ Alcotest.test_case "backends agree" `Quick env_backends_agree ]);
    ]
