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

let make_store_env () =
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
  ( store,
    Kvstore.Env.direct_ucache ~store ~device_access:access
      ~ucache )

let make_env () = snd (make_store_env ())

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
    Kvstore.Env.direct_ucache ~store ~device_access:access ~ucache
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
      Kvstore.Env.direct_ucache ~store
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

(* A store with 8-page SSTs that flushes every [memtable] bytes and
   compacts L0 past [l0_limit] files. *)
let small_rocksdb ~memtable ~l0_limit =
  {
    Kvstore.Rocksdb_sim.default_config with
    Kvstore.Rocksdb_sim.memtable_limit_bytes = memtable;
    l0_limit;
    sst_pages = 8;
  }

(* The same puts and flushes, once with a first flush whose every SST
   write fails permanently: the failed attempt must delete the SSTs it
   started, so after its retry the store has as many free pages as a
   store that never failed. *)
let rocksdb_failed_flush_leaks_nothing () =
  let broken =
    Fault.Plan.make
      { Fault.Plan.default with Fault.Plan.seed = 5; write_error = 1.0; permanent = 1.0 }
  in
  let free_pages ~fail =
    let store, env = make_store_env () in
    in_sim (fun () ->
        let d = Kvstore.Rocksdb_sim.create env () in
        for i = 0 to 99 do
          Kvstore.Rocksdb_sim.put d (Printf.sprintf "k%03d" i) "v"
        done;
        if fail then (
          match Fault.with_plan broken (fun () -> Kvstore.Rocksdb_sim.flush d) with
          | () -> Alcotest.fail "the broken flush returned"
          | exception Fault.Io_error { write; _ } ->
              Alcotest.(check bool) "a write failed" true write);
        Kvstore.Rocksdb_sim.flush d;
        Alcotest.(check (option string))
          "flushed" (Some "v") (Kvstore.Rocksdb_sim.get d "k050"));
    Blobstore.Store.free_pages store
  in
  checki "free pages" (free_pages ~fail:false) (free_pages ~fail:true)

(* Every device read fails permanently, so each compaction fails on its
   inputs while flushes, which only write, go on filling L0: the put that
   stalls at L0's stop trigger gets the compaction's error.  Once reads
   work again the next put retries the compaction, and no record is
   lost. *)
let rocksdb_failed_compaction_keeps_inputs () =
  let env = make_env () in
  let broken_reads =
    Fault.Plan.make
      { Fault.Plan.default with Fault.Plan.seed = 5; read_error = 1.0; permanent = 1.0 }
  in
  let cfg = small_rocksdb ~memtable:512 ~l0_limit:1 in
  let key i = Printf.sprintf "k%04d" i and value i = Printf.sprintf "%0100d" i in
  in_sim (fun () ->
      let d = Kvstore.Rocksdb_sim.create env ~config:cfg () in
      let n = ref 0 and stopped = ref false in
      Fault.with_plan broken_reads (fun () ->
          while not !stopped do
            match Kvstore.Rocksdb_sim.put d (key !n) (value !n) with
            | () -> incr n
            | exception Fault.Io_error { write = false; _ } -> stopped := true
          done);
      checki "no compaction installed" 0 (Kvstore.Rocksdb_sim.compactions d);
      checki "L0 at the stop trigger" 36 (List.hd (Kvstore.Rocksdb_sim.level_sizes d));
      Kvstore.Rocksdb_sim.put d (key !n) (value !n);
      Alcotest.(check bool) "compacted" true (Kvstore.Rocksdb_sim.compactions d > 0);
      for i = 0 to !n do
        Alcotest.(check (option string))
          (key i) (Some (value i)) (Kvstore.Rocksdb_sim.get d (key i))
      done)

(* A compaction fails while the compactor still has replaced SSTs to
   delete, on a Linux mmap where a delete suspends (munmap and dropping
   the file's cached pages take time).  A reader holds an iterator over
   the bulk-loaded L1 across the first compaction, which replaces it, and
   lets go during the second, which then fails on device reads while the
   writer is stalled at L0's stop trigger.  The writer takes the error
   while the compactor deletes the released SSTs, and puts again at once:
   the compactor must still hear that put and retry. *)
let rocksdb_compaction_fails_while_deleting () =
  let s = Experiments.Scenario.make_linux ~frames:128 ~dev:Experiments.Scenario.Nvme () in
  let env =
    Kvstore.Env.linux_mmap ~store:s.Experiments.Scenario.l_store ~msys:s.l_msys
      ~device_access:s.l_access
  in
  let broken_reads =
    Fault.Plan.make { Fault.Plan.default with Fault.Plan.seed = 5; read_error = 1.0 }
  in
  let cfg = { (small_rocksdb ~memtable:512 ~l0_limit:1) with nlevels = 2 } in
  let loaded = 1200 and n = 120 in
  let key j = Printf.sprintf "k%05d" (j * 7919 mod loaded) in
  let value i = Printf.sprintf "%0900d" i in
  let eng = Sim.Engine.create () in
  let db = Sim.Sync.Ivar.create () in
  let puts = ref 0 and errors = ref 0 and deleting = ref false and stale = ref [] in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env ~config:cfg () in
         Kvstore.Rocksdb_sim.bulk_load d
           (List.init loaded (fun i -> (Printf.sprintf "k%05d" i, value i)));
         Sim.Sync.Ivar.fill db d;
         for j = 0 to n - 1 do
           let rec put () =
             match Kvstore.Rocksdb_sim.put d (key j) (value (loaded + j)) with
             | () -> incr puts
             | exception (Fault.Io_error _ | Fault.Sigbus _) ->
                 incr errors;
                 (* SSTs that no version lists but that are not deleted *)
                 deleting :=
                   Blobstore.Store.blob_count s.l_store
                   > Kvstore.Rocksdb_sim.sst_count d + 1;
                 Fault.clear ();
                 put ()
           in
           put ()
         done;
         for j = 0 to n - 1 do
           if Kvstore.Rocksdb_sim.get d (key j) <> Some (value (loaded + j)) then
             stale := key j :: !stale
         done));
  ignore
    (Sim.Engine.spawn eng ~core:1 (fun () ->
         let d = Sim.Sync.Ivar.read db in
         Kvstore.Rocksdb_sim.with_iterator d ~start:"" (fun _ ->
             while Kvstore.Rocksdb_sim.compactions d < 1 do
               Sim.Engine.idle_wait 1_000L
             done;
             (* the writer is stalled on the second compaction *)
             while List.hd (Kvstore.Rocksdb_sim.level_sizes d) < 36 do
               Sim.Engine.idle_wait 1_000L
             done;
             Fault.install broken_reads)));
  Fun.protect ~finally:Fault.clear (fun () -> Sim.Engine.run eng);
  let d = Sim.Sync.Ivar.read db in
  checki "every put returned" n !puts;
  checki "one failed compaction reached the writer" 1 !errors;
  Alcotest.(check bool) "replaced SSTs were being deleted" true !deleting;
  Alcotest.(check (list string)) "every put readable" [] !stale;
  checki "only the live SSTs and the WAL are left"
    (Kvstore.Rocksdb_sim.sst_count d + 1)
    (Blobstore.Store.blob_count s.l_store)

(* An iterator lent by [with_iterator] holds its version only while the
   callback runs, whether the callback stops early or raises: once a
   compaction has replaced the flushed files the iterators read, the
   store holds just its live SSTs and the WAL. *)
let rocksdb_with_iterator_releases () =
  let store, env = make_store_env () in
  let cfg = small_rocksdb ~memtable:4096 ~l0_limit:1 in
  let d = ref None in
  in_sim (fun () ->
      let db = Kvstore.Rocksdb_sim.create env ~config:cfg () in
      d := Some db;
      let put_range lo hi =
        for i = lo to hi - 1 do
          Kvstore.Rocksdb_sim.put db (Printf.sprintf "k%04d" i) (String.make 100 'v')
        done;
        Kvstore.Rocksdb_sim.flush db
      in
      put_range 0 100;
      Alcotest.(check (list string))
        "a prefix" [ "k0000"; "k0001" ]
        (Kvstore.Rocksdb_sim.with_iterator db ~start:"" (fun it ->
             List.map fst (Kvstore.Kv_iter.take it 2)));
      (match
         Kvstore.Rocksdb_sim.with_iterator db ~start:"k0050" (fun it ->
             ignore (Kvstore.Kv_iter.next it);
             raise Exit)
       with
      | () -> Alcotest.fail "the callback's exception was lost"
      | exception Exit -> ());
      put_range 0 100);
  let d = Option.get !d in
  Alcotest.(check bool) "compacted" true (Kvstore.Rocksdb_sim.compactions d > 0);
  checki "only the live SSTs and the WAL are left"
    (Kvstore.Rocksdb_sim.sst_count d + 1)
    (Blobstore.Store.blob_count store)

(* A store whose L0 has no level to compact into must not stop writes at
   L0's stop trigger: nothing would ever bring L0 back below it. *)
let rocksdb_one_level_never_stops () =
  let env = make_env () in
  let cfg = { (small_rocksdb ~memtable:512 ~l0_limit:1) with nlevels = 1 } in
  let puts = ref 0 in
  in_sim (fun () ->
      let d = Kvstore.Rocksdb_sim.create env ~config:cfg () in
      for i = 0 to 299 do
        Kvstore.Rocksdb_sim.put d (Printf.sprintf "k%04d" i) (Printf.sprintf "%0100d" i);
        incr puts
      done;
      Alcotest.(check bool) "L0 past the stop trigger" true
        (List.hd (Kvstore.Rocksdb_sim.level_sizes d) > 36));
  checki "every put returned" 300 !puts

(* A get on a Linux mmap over NVMe that is suspended inside an SST read
   while a compaction replaces that SST: the get keeps reading the
   version it pinned and returns its value (without pins it faulted
   beyond the end of the deleted file), and once the engine drains every
   replaced SST is deleted.  The writer puts 3,200 records in a scattered
   key order, so every flushed L0 file overlaps every other and each
   compaction replaces them all; the reader gets written keys back to
   back while it runs.  A 128-frame cache keeps the gets' reads going to
   the device, long enough for deletions to land inside them. *)
let rocksdb_get_outlives_compaction () =
  let s = Experiments.Scenario.make_linux ~frames:128 ~dev:Experiments.Scenario.Nvme () in
  let env =
    Kvstore.Env.linux_mmap ~store:s.Experiments.Scenario.l_store ~msys:s.l_msys
      ~device_access:s.l_access
  in
  let cfg = small_rocksdb ~memtable:8192 ~l0_limit:2 in
  let n = 3200 in
  let key i = Printf.sprintf "key%05d" (i * 7919 mod n) in
  let value i = Printf.sprintf "value-%05d-%s" i (String.make 80 'x') in
  let eng = Sim.Engine.create () in
  let db = Sim.Sync.Ivar.create () in
  let written = ref 0 and writing = ref true in
  let gets = ref 0 and spanned = ref 0 and failures = ref [] in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env ~config:cfg () in
         Sim.Sync.Ivar.fill db d;
         for i = 0 to n - 1 do
           Kvstore.Rocksdb_sim.put d (key i) (value i);
           written := i + 1
         done;
         writing := false));
  ignore
    (Sim.Engine.spawn eng ~core:1 (fun () ->
         let d = Sim.Sync.Ivar.read db in
         (* keys this far back are out of the memtables *)
         let behind = 100 in
         while !writing do
           if !written <= behind then Sim.Engine.idle_wait 10_000L
           else begin
             let i = !gets * 7 mod (!written - behind) in
             let l0 = List.hd (Kvstore.Rocksdb_sim.level_sizes d) in
             (match Kvstore.Rocksdb_sim.get d (key i) with
             | Some v when v = value i -> ()
             | r ->
                 failures :=
                   Printf.sprintf "%s: %s" (key i) (Option.value r ~default:"missing")
                   :: !failures
             | exception e -> failures := Printexc.to_string e :: !failures);
             incr gets;
             (* L0 shrank: a compaction replaced its files during the get *)
             if List.hd (Kvstore.Rocksdb_sim.level_sizes d) < l0 then incr spanned
           end
         done));
  Sim.Engine.run eng;
  let d = Sim.Sync.Ivar.read db in
  Alcotest.(check (list string)) "every get returned its value" [] (List.rev !failures);
  Alcotest.(check bool) "gets spanned compactions" true (!spanned >= 2);
  checki "only the live SSTs and the WAL are left"
    (Kvstore.Rocksdb_sim.sst_count d + 1)
    (Blobstore.Store.blob_count s.l_store)

(* Open-loop puts and gets into a store whose memtable fills every few
   dozen puts: the worker's ledger carries no flush or compaction cycles,
   the flusher's and the compactor's do. *)
let rocksdb_daemons_pay_for_background_work () =
  let env = make_env () in
  let eng = Sim.Engine.create () in
  let cfg = small_rocksdb ~memtable:4096 ~l0_limit:2 in
  let db = ref None and workers = ref [] in
  let res =
    Loadgen.run eng
      {
        Loadgen.process = Loadgen.Arrival.Poisson { rate = 200e3 };
        horizon = 12_000_000;
        workers = 1;
        queue_cap = 10_000;
        slo_cycles = 0;
        seed = 3;
        shed_when_degraded = false;
      }
      (fun () ->
        let d = Kvstore.Rocksdb_sim.create env ~config:cfg () in
        db := Some d;
        {
          Loadgen.name = "rocksdb";
          serve =
            (fun i ->
              let self = Sim.Engine.self () in
              if not (List.memq self !workers) then workers := self :: !workers;
              let k = Printf.sprintf "k%04d" (i * 37 mod 500) in
              if i mod 4 = 3 then ignore (Kvstore.Rocksdb_sim.get d k)
              else
                Kvstore.Rocksdb_sim.put d k
                  (Printf.sprintf "value-%06d-%s" i (String.make 90 'v')));
          degraded = (fun () -> false);
        })
  in
  let d = Option.get !db in
  checki "every arrival served" res.Loadgen.arrivals res.Loadgen.completions;
  Alcotest.(check bool) "compactions ran" true (Kvstore.Rocksdb_sim.compactions d >= 2);
  let charged label ctx = Sim.Engine.label_get ctx label > 0L in
  checki "one worker" 1 (List.length !workers);
  List.iter
    (fun w ->
      Alcotest.(check bool) "worker paid no flush" false (charged "kv_flush" w);
      Alcotest.(check bool) "worker paid no compaction" false (charged "kv_compact" w))
    !workers;
  match Kvstore.Rocksdb_sim.daemons d with
  | [ flusher; compactor ] ->
      Alcotest.(check bool) "flusher pays for flushes" true (charged "kv_flush" flusher);
      Alcotest.(check bool) "compactor pays for compactions" true
        (charged "kv_compact" compactor)
  | l -> Alcotest.failf "%d daemons, expected a flusher and a compactor" (List.length l)

(* Pins the timing of the background write path: a fixed script of puts
   and gets on a small config drives flushes and at least three
   compactions, and its event count, final clock, level sizes and the
   worker's slowest operation are those recorded when flushes and
   compactions moved to their daemons.  A change to that path moves
   them; update the numbers only with a reason. *)
let rocksdb_background_timing_pinned () =
  let env = make_env () in
  let eng = Sim.Engine.create () in
  let cfg = small_rocksdb ~memtable:4096 ~l0_limit:2 in
  let db = ref None and slowest = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let d = Kvstore.Rocksdb_sim.create env ~config:cfg () in
         db := Some d;
         for i = 0 to 1199 do
           let t0 = Sim.Engine.now_f () in
           (if i mod 3 = 2 then
              ignore (Kvstore.Rocksdb_sim.get d (Printf.sprintf "k%04d" (i / 2)))
            else
              Kvstore.Rocksdb_sim.put d
                (Printf.sprintf "k%04d" (i * 7919 mod 1200))
                (Printf.sprintf "value-%06d-%s" i (String.make 50 'v')));
           slowest := max !slowest (Int64.sub (Sim.Engine.now_f ()) t0)
         done));
  Sim.Engine.run eng;
  let d = Option.get !db in
  Alcotest.(check bool)
    "at least three compactions" true
    (Kvstore.Rocksdb_sim.compactions d >= 3);
  Alcotest.(check (list int))
    "level sizes" [ 1; 3; 0; 0 ] (Kvstore.Rocksdb_sim.level_sizes d);
  checki "events" 7836 (Sim.Engine.events eng);
  Alcotest.(check int64) "final clock" 9116930L (Sim.Engine.now eng);
  Alcotest.(check int64) "slowest operation" 61040L !slowest

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

(* [scan] goes through [with_iterator], so comparing the two would compare
   one merge path with itself.  Compare each with the records the store
   must return: the bulk load, with the memtable's newer value shadowing
   one of them. *)
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
          let expect =
            records 500
            |> List.map (fun (k, v) -> if k = "key000100" then (k, "fresh") else (k, v))
            |> List.filter (fun (k, _) -> k >= start)
            |> List.filteri (fun i _ -> i < n)
          in
          let via_scan = Kvstore.Rocksdb_sim.scan db ~start ~n in
          let via_iter =
            Kvstore.Rocksdb_sim.with_iterator db ~start (fun it -> Kvstore.Kv_iter.take it n)
          in
          if via_scan <> expect || via_iter <> expect then ok := false);
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
          Alcotest.test_case "failed flush leaks nothing" `Quick
            rocksdb_failed_flush_leaks_nothing;
          Alcotest.test_case "failed compaction keeps its inputs" `Quick
            rocksdb_failed_compaction_keeps_inputs;
          Alcotest.test_case "compaction fails while deleting" `Quick
            rocksdb_compaction_fails_while_deleting;
          Alcotest.test_case "with_iterator releases its version" `Quick
            rocksdb_with_iterator_releases;
          Alcotest.test_case "one-level store never stops writes" `Quick
            rocksdb_one_level_never_stops;
          Alcotest.test_case "get outlives a compaction" `Quick
            rocksdb_get_outlives_compaction;
          Alcotest.test_case "daemons pay for background work" `Quick
            rocksdb_daemons_pay_for_background_work;
          Alcotest.test_case "background timing pinned" `Quick
            rocksdb_background_timing_pinned;
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
