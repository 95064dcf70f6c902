(* Tests for the blobstore (lib/blobstore). *)

let checki = Alcotest.(check int)

let mk () = Blobstore.Store.create ~capacity_pages:4096 ~cluster_pages:64 ()

let create_and_translate () =
  let s = mk () in
  let b = Blobstore.Store.create_blob s ~name:"a" ~pages:100 () in
  checki "pages" 100 (Blobstore.Store.blob_pages b);
  Alcotest.(check (option string)) "name" (Some "a") (Blobstore.Store.blob_name b);
  (* 100 pages -> 2 clusters of 64 *)
  checki "free pages" (4096 - 128) (Blobstore.Store.free_pages s);
  (* translation is monotone within a cluster *)
  checki "page 0" (Blobstore.Store.device_page b 0 + 1) (Blobstore.Store.device_page b 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Blobstore.device_page: out of range") (fun () ->
      ignore (Blobstore.Store.device_page b 100))

let translation_unique () =
  let s = mk () in
  let b1 = Blobstore.Store.create_blob s ~pages:64 () in
  let b2 = Blobstore.Store.create_blob s ~pages:64 () in
  let pages = Hashtbl.create 128 in
  List.iter
    (fun b ->
      for p = 0 to 63 do
        let dev = Blobstore.Store.device_page b p in
        Alcotest.(check bool) "no overlap" false (Hashtbl.mem pages dev);
        Hashtbl.replace pages dev ()
      done)
    [ b1; b2 ]

let delete_frees () =
  let s = mk () in
  let b = Blobstore.Store.create_blob s ~pages:128 () in
  let id = Blobstore.Store.blob_id b in
  Blobstore.Store.delete s b;
  checki "all free" 4096 (Blobstore.Store.free_pages s);
  checki "no blobs" 0 (Blobstore.Store.blob_count s);
  Alcotest.check_raises "open deleted" Not_found (fun () ->
      ignore (Blobstore.Store.open_blob s id))

let out_of_space () =
  let s = mk () in
  Alcotest.check_raises "full" (Failure "Blobstore: out of space") (fun () ->
      ignore (Blobstore.Store.create_blob s ~pages:5000 ()))

let contiguous_runs () =
  let s = mk () in
  let b = Blobstore.Store.create_blob s ~pages:128 () in
  (* freshly allocated clusters are consecutive, so the run spans both *)
  Alcotest.(check bool) "long run from 0" true (Blobstore.Store.contiguous_run b 0 >= 64);
  checki "tail run" 1 (Blobstore.Store.contiguous_run b 127)

let alloc_reuse_prop =
  QCheck.Test.make ~name:"blobstore never double-allocates clusters" ~count:50
    QCheck.(list (int_range 1 300))
    (fun sizes ->
      let s = mk () in
      let blobs = ref [] in
      (try
         List.iteri
           (fun i pages ->
             let b = Blobstore.Store.create_blob s ~pages () in
             if i mod 3 = 0 then Blobstore.Store.delete s b
             else blobs := b :: !blobs)
           sizes
       with Failure _ -> ());
      let seen = Hashtbl.create 256 in
      List.for_all
        (fun b ->
          let ok = ref true in
          for p = 0 to Blobstore.Store.blob_pages b - 1 do
            let dev = Blobstore.Store.device_page b p in
            if Hashtbl.mem seen dev then ok := false;
            Hashtbl.replace seen dev ()
          done;
          !ok)
        !blobs)

let () =
  Alcotest.run "blobstore"
    [
      ( "store",
        [
          Alcotest.test_case "create and translate" `Quick create_and_translate;
          Alcotest.test_case "unique translation" `Quick translation_unique;
          Alcotest.test_case "delete frees" `Quick delete_frees;
          Alcotest.test_case "out of space" `Quick out_of_space;
          Alcotest.test_case "contiguous runs" `Quick contiguous_runs;
          QCheck_alcotest.to_alcotest alloc_reuse_prop;
        ] );
    ]
