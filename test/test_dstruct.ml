(* Tests for the core data structures (lib/dstruct). *)

module Imap = Map.Make (Int)

let checki = Alcotest.(check int)

(* ---- Radix tree ---- *)

let radix_basic () =
  let t = Dstruct.Radix_tree.create () in
  Alcotest.(check (option int)) "empty" None (Dstruct.Radix_tree.find t 0);
  ignore (Dstruct.Radix_tree.insert t 0 10);
  ignore (Dstruct.Radix_tree.insert t 100000 20);
  Alcotest.(check (option int)) "find 0" (Some 10) (Dstruct.Radix_tree.find t 0);
  Alcotest.(check (option int)) "find big" (Some 20) (Dstruct.Radix_tree.find t 100000);
  checki "length" 2 (Dstruct.Radix_tree.length t);
  Alcotest.(check (option int)) "remove" (Some 10) (Dstruct.Radix_tree.remove t 0);
  Alcotest.(check (option int)) "gone" None (Dstruct.Radix_tree.find t 0);
  Alcotest.check_raises "negative key" (Invalid_argument "Radix_tree: negative key")
    (fun () -> ignore (Dstruct.Radix_tree.find t (-1)))

let radix_floor () =
  let t = Dstruct.Radix_tree.create () in
  List.iter (fun k -> ignore (Dstruct.Radix_tree.insert t k k)) [ 10; 64; 1000; 4096 ];
  let floor k = Option.map fst (Dstruct.Radix_tree.find_floor t k) in
  Alcotest.(check (option int)) "below all" None (floor 9);
  Alcotest.(check (option int)) "exact" (Some 10) (floor 10);
  Alcotest.(check (option int)) "between" (Some 64) (floor 999);
  Alcotest.(check (option int)) "above all" (Some 4096) (floor 100000)

(* Inserts and removes (a negative entry removes its absolute value) on
   keys that make the tree grow; after each, [length] and a probe's
   find/floor agree with the map, and at the end so does the traversal. *)
let radix_model =
  QCheck.Test.make ~name:"radix matches Map (find/floor/iter)" ~count:200
    QCheck.(pair (list (int_range (-5000) 5000)) (int_bound 6000))
    (fun (ops, probe) ->
      let t = Dstruct.Radix_tree.create () in
      let m = ref Imap.empty in
      let agrees () =
        let model_floor = Imap.find_last_opt (fun k -> k <= probe) !m in
        Dstruct.Radix_tree.length t = Imap.cardinal !m
        && Dstruct.Radix_tree.find_floor t probe = model_floor
        && Dstruct.Radix_tree.find t probe = Imap.find_opt probe !m
        && Dstruct.Radix_tree.mem t probe = Imap.mem probe !m
      in
      List.for_all
        (fun k ->
          (if k >= 0 then begin
             let old = Dstruct.Radix_tree.insert t k (k + 1) in
             let want = Imap.find_opt k !m in
             m := Imap.add k (k + 1) !m;
             old = want
           end
           else begin
             let k = -k in
             let old = Dstruct.Radix_tree.remove t k in
             let want = Imap.find_opt k !m in
             m := Imap.remove k !m;
             old = want
           end)
          && agrees ())
        ops
      && Dstruct.Radix_tree.fold (fun k v acc -> (k, v) :: acc) t [] |> List.rev
         = Imap.bindings !m)

(* ---- Clock LRU ---- *)

let clock_prefers_unreferenced () =
  let t = Dstruct.Clock_lru.create ~nframes:4 in
  for f = 0 to 3 do
    Dstruct.Clock_lru.set_active t f true
  done;
  Dstruct.Clock_lru.touch t 0;
  Dstruct.Clock_lru.touch t 1;
  (* 2 and 3 are unreferenced: they go first *)
  Alcotest.(check (list int)) "victims" [ 2; 3 ] (Dstruct.Clock_lru.evict_candidates t 2);
  checki "active count" 2 (Dstruct.Clock_lru.active_count t)

let clock_second_sweep () =
  let t = Dstruct.Clock_lru.create ~nframes:3 in
  for f = 0 to 2 do
    Dstruct.Clock_lru.set_active t f true;
    Dstruct.Clock_lru.touch t f
  done;
  (* all referenced: the first sweep clears bits, the second takes them *)
  Alcotest.(check (list int)) "sweeps twice" [ 0; 1 ] (Dstruct.Clock_lru.evict_candidates t 2)

let clock_skips_pinned () =
  let t = Dstruct.Clock_lru.create ~nframes:3 in
  for f = 0 to 2 do
    Dstruct.Clock_lru.set_active t f true
  done;
  Dstruct.Clock_lru.set_pinned t 0 true;
  Alcotest.(check (list int)) "pinned skipped" [ 1; 2 ]
    (Dstruct.Clock_lru.evict_candidates t 2);
  Dstruct.Clock_lru.set_pinned t 0 false;
  Alcotest.(check (list int)) "unpinned eligible" [ 0 ]
    (Dstruct.Clock_lru.evict_candidates t 1)

let clock_empty_when_all_pinned () =
  let t = Dstruct.Clock_lru.create ~nframes:2 in
  Dstruct.Clock_lru.set_active t 0 true;
  Dstruct.Clock_lru.set_pinned t 0 true;
  Alcotest.(check (list int)) "nothing evictable" []
    (Dstruct.Clock_lru.evict_candidates t 1)

let () =
  Alcotest.run "dstruct"
    [
      ( "radix",
        [
          Alcotest.test_case "basic" `Quick radix_basic;
          Alcotest.test_case "find_floor" `Quick radix_floor;
          QCheck_alcotest.to_alcotest radix_model;
        ] );
      ( "clock lru",
        [
          Alcotest.test_case "prefers unreferenced" `Quick clock_prefers_unreferenced;
          Alcotest.test_case "second sweep" `Quick clock_second_sweep;
          Alcotest.test_case "skips pinned" `Quick clock_skips_pinned;
          Alcotest.test_case "all pinned" `Quick clock_empty_when_all_pinned;
        ] );
    ]
