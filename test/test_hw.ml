(* Tests for the hardware cost model (lib/hw). *)

let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)
let c = Hw.Costs.default

(* ---- Defs ---- *)

let defs_roundtrip () =
  checki "page of addr" 3 (Hw.Defs.page_of_addr 12288L);
  check64 "addr of page" 12288L (Hw.Defs.addr_of_page 3);
  checki "pages of bytes exact" 2 (Hw.Defs.pages_of_bytes 8192L);
  checki "pages of bytes round up" 3 (Hw.Defs.pages_of_bytes 8193L);
  check64 "2.4 cycles per ns" 2400L (Hw.Defs.us 1.0)

(* ---- Costs ---- *)

let memcpy_costs () =
  check64 "scalar 4k" 2400L (Hw.Costs.memcpy_4k c ~simd:false);
  check64 "avx2 4k incl FPU" 1200L (Hw.Costs.memcpy_4k c ~simd:true);
  (* paper: 2x faster with SIMD *)
  Alcotest.(check bool) "simd 2x"
    true
    (Int64.to_float (Hw.Costs.memcpy_4k c ~simd:false)
     /. Int64.to_float (Hw.Costs.memcpy_4k c ~simd:true)
    = 2.0);
  check64 "scales with size" 4800L (Hw.Costs.memcpy_bytes c ~simd:false 8192)

let paper_constants () =
  check64 "ring3 trap" 1287L c.Hw.Costs.trap_ring3;
  check64 "nonroot exception" 552L c.Hw.Costs.exception_ring0;
  check64 "posted ipi" 298L c.Hw.Costs.ipi_send_posted;
  check64 "vmexit-send ipi" 2081L c.Hw.Costs.ipi_send_vmexit;
  check64 "vmexit" 750L c.Hw.Costs.vmexit;
  check64 "fpu save/restore" 300L c.Hw.Costs.fpu_save_restore

(* ---- Domains ---- *)

let domain_costs () =
  let ring3 = Hw.Domain_x.fault_transition_cost c Hw.Domain_x.Ring3 in
  let aquila = Hw.Domain_x.fault_transition_cost c Hw.Domain_x.Nonroot_ring0 in
  check64 "ring3 = trap" 1287L ring3;
  Alcotest.(check bool) "aquila ~2.33x cheaper (paper)" true
    (Int64.to_float ring3 /. Int64.to_float aquila > 1.8);
  Alcotest.(check bool) "syscall < vmcall" true
    (Hw.Domain_x.syscall_cost c Hw.Domain_x.Ring3
     < Hw.Domain_x.syscall_cost c Hw.Domain_x.Nonroot_ring0)

(* ---- Topology ---- *)

let topology () =
  let t = Hw.Topology.default in
  checki "cores" 32 t.Hw.Topology.cores;
  checki "nodes" 2 t.Hw.Topology.nodes;
  checki "node of core 0" 0 (Hw.Topology.node_of t 0);
  checki "node of core 16" 1 (Hw.Topology.node_of t 16);
  Alcotest.check_raises "bad core" (Invalid_argument "Topology.node_of: bad core")
    (fun () -> ignore (Hw.Topology.node_of t 32));
  Alcotest.check_raises "bad topology"
    (Invalid_argument "Topology.create: cores must be a positive multiple of nodes")
    (fun () -> ignore (Hw.Topology.create ~cores:5 ~nodes:2))

(* ---- TLB ---- *)

let tlb_hit_miss () =
  let t = Hw.Tlb.create () in
  let miss = Hw.Tlb.access t c ~vpn:42 in
  check64 "miss pays walk" c.Hw.Costs.tlb_miss_walk miss;
  let hit = Hw.Tlb.access t c ~vpn:42 in
  check64 "hit free" 0L hit;
  checki "counters" 1 (Hw.Tlb.misses t);
  checki "hits" 1 (Hw.Tlb.hits t)

let tlb_invalidate () =
  let t = Hw.Tlb.create () in
  ignore (Hw.Tlb.access t c ~vpn:42);
  ignore (Hw.Tlb.invalidate_local t c ~vpn:42);
  check64 "miss after invalidate" c.Hw.Costs.tlb_miss_walk (Hw.Tlb.access t c ~vpn:42);
  ignore (Hw.Tlb.flush t c);
  check64 "miss after flush" c.Hw.Costs.tlb_miss_walk (Hw.Tlb.access t c ~vpn:42)

let tlb_conflict_eviction () =
  (* direct-mapped: vpn and vpn+capacity collide *)
  let t = Hw.Tlb.create ~capacity:64 () in
  ignore (Hw.Tlb.access t c ~vpn:1);
  ignore (Hw.Tlb.access t c ~vpn:65);
  Alcotest.(check bool) "conflict evicts" true
    (Hw.Tlb.access t c ~vpn:1 > 0L)

(* ---- Machine + IPI ---- *)

let ipi_shootdown () =
  let m = Hw.Machine.create () in
  (* warm target TLBs *)
  ignore (Hw.Tlb.access (Hw.Machine.core m 1).Hw.Machine.tlb c ~vpn:7);
  ignore (Hw.Tlb.access (Hw.Machine.core m 2).Hw.Machine.tlb c ~vpn:7);
  Hw.Ipi.reset_counters ();
  let cost =
    Hw.Ipi.shootdown m c ~mode:Hw.Ipi.Posted ~src:0 ~targets:[ 0; 1; 2 ] ~vpns:[ 7 ]
  in
  Alcotest.(check bool) "sender pays send+ack" true
    (cost >= Int64.add c.Hw.Costs.ipi_send_posted c.Hw.Costs.ipi_receive);
  checki "one batch" 1 (Hw.Ipi.shootdowns_sent ());
  (* target TLBs no longer hold the translation *)
  Alcotest.(check bool) "target invalidated" true
    (Hw.Tlb.access (Hw.Machine.core m 1).Hw.Machine.tlb c ~vpn:7 > 0L);
  (* targets accumulated pending interrupt work; src did not *)
  Alcotest.(check bool) "pending irq on target" true
    (Hw.Machine.drain_irq m ~core:2 > 0L);
  check64 "src exempt" 0L (Hw.Machine.drain_irq m ~core:0)

let ipi_self_only_is_free () =
  let m = Hw.Machine.create () in
  check64 "no targets, no cost" 0L
    (Hw.Ipi.shootdown m c ~mode:Hw.Ipi.Posted ~src:0 ~targets:[ 0 ] ~vpns:[ 1 ])

(* Both sides of a batch invalidation switch from per-page invlpg to one
   full flush past 33 pages: at 33 the initiator pays 33 invlpgs and every
   receiver its interrupt plus 33 invlpgs; at 34 both sides pay a full
   flush. *)
let ipi_invalidate_flush_threshold () =
  let invalidate npages =
    let m = Hw.Machine.create () in
    let own = (Hw.Machine.core m 0).Hw.Machine.tlb in
    ignore (Hw.Tlb.access own c ~vpn:9999);
    let cost =
      Hw.Ipi.invalidate m c ~mode:Hw.Ipi.Posted ~core:0 ~targets:[ 0; 1; 2 ]
        ~vpns:(List.init npages Fun.id)
    in
    ( cost,
      Hw.Machine.drain_irq m ~core:1,
      Hw.Machine.drain_irq m ~core:2,
      Hw.Tlb.access own c ~vpn:9999 = 0L )
  in
  let send = Hw.Ipi.send_cost c Hw.Ipi.Posted in
  let check_side npages ~local ~flushed =
    let per_receiver = Int64.add c.Hw.Costs.ipi_receive local in
    let cost, r1, r2, kept = invalidate npages in
    let label what = Printf.sprintf "%d pages: %s" npages what in
    check64 (label "receiver") per_receiver r1;
    check64 (label "every receiver") per_receiver r2;
    check64 (label "initiator") (Int64.add local (Int64.add send per_receiver)) cost;
    Alcotest.(check bool) (label "own TLB flushed") flushed (not kept)
  in
  check_side 33 ~local:(Int64.mul 33L c.Hw.Costs.tlb_invlpg) ~flushed:false;
  check_side 34 ~local:c.Hw.Costs.tlb_full_flush ~flushed:true;
  let m = Hw.Machine.create () in
  let sent = Hw.Ipi.shootdowns_sent () in
  check64 "no pages, no cost" 0L
    (Hw.Ipi.invalidate m c ~mode:Hw.Ipi.Posted ~core:0 ~targets:[ 0; 1; 2 ]
       ~vpns:[]);
  checki "no pages, no batch" sent (Hw.Ipi.shootdowns_sent ());
  check64 "no pages, no receive work" 0L (Hw.Machine.drain_irq m ~core:1)

(* A shootdown must leave every core's TLB entries, its invalidation
   count and its pending interrupt work exactly as clearing the batch
   page by page on each receiver does.  64-entry TLBs over 256 pages give
   slot conflicts, batches run from 1 to 70 pages (both sides of the
   33-page flush threshold), and the target list may include [src]. *)
let ipi_shootdown_vs_per_page =
  let cores = 8 and cap = 64 and pool = 256 in
  QCheck.Test.make ~name:"shootdown matches per-page reference" ~count:200
    QCheck.(
      make
        ~print:
          Print.(
            quad int int (list int) (list int))
        Gen.(
          quad (int_bound 100_000) (int_bound (cores - 1))
            (list_size (int_range 0 cores) (int_bound (cores - 1)))
            (list_size (int_range 1 70) (int_bound (pool - 1)))))
    (fun (seed, src, targets, vpns) ->
      let targets = List.sort_uniq compare targets in
      let machine () =
        let m =
          Hw.Machine.create
            ~topology:(Hw.Topology.create ~cores ~nodes:2)
            ~tlb_capacity:cap ()
        in
        let rng = Random.State.make [| seed |] in
        Array.iter
          (fun co ->
            for _ = 1 to 150 do
              ignore
                (Hw.Tlb.access co.Hw.Machine.tlb c
                   ~vpn:(Random.State.int rng pool))
            done)
          (Hw.Machine.cores m);
        m
      in
      let m = machine () and r = machine () in
      let cost = Hw.Ipi.shootdown m c ~mode:Hw.Ipi.Posted ~src ~targets ~vpns in
      let receivers = List.filter (fun t -> t <> src) targets in
      let npages = List.length vpns in
      let per_receiver =
        Int64.add c.Hw.Costs.ipi_receive
          (if npages > 33 then c.Hw.Costs.tlb_full_flush
           else Int64.mul (Int64.of_int npages) c.Hw.Costs.tlb_invlpg)
      in
      List.iter
        (fun t ->
          let tlb = (Hw.Machine.core r t).Hw.Machine.tlb in
          List.iter (fun vpn -> ignore (Hw.Tlb.invalidate_local tlb c ~vpn)) vpns;
          Hw.Machine.deliver_irq r ~core:t per_receiver)
        receivers;
      let expect_cost =
        if receivers = [] then 0L
        else Int64.add (Hw.Ipi.send_cost c Hw.Ipi.Posted) per_receiver
      in
      (* Which pages a TLB holds, read through its invalidation count:
         dropping a page counts only if the page was cached. *)
      let held tlb =
        List.init pool (fun vpn ->
            let before = Hw.Tlb.invalidations tlb in
            ignore (Hw.Tlb.invalidate_local tlb c ~vpn);
            Hw.Tlb.invalidations tlb > before)
      in
      cost = expect_cost
      && List.for_all
           (fun i ->
             let a = Hw.Machine.core m i and b = Hw.Machine.core r i in
             Hw.Tlb.invalidations a.Hw.Machine.tlb
             = Hw.Tlb.invalidations b.Hw.Machine.tlb
             && a.Hw.Machine.irqs_received = b.Hw.Machine.irqs_received
             && Hw.Machine.drain_irq m ~core:i = Hw.Machine.drain_irq r ~core:i
             && held a.Hw.Machine.tlb = held b.Hw.Machine.tlb)
           (List.init cores Fun.id))

let drain_irq_clears () =
  let m = Hw.Machine.create () in
  Hw.Machine.deliver_irq m ~core:3 500L;
  Hw.Machine.deliver_irq m ~core:3 250L;
  check64 "accumulated" 750L (Hw.Machine.drain_irq m ~core:3);
  check64 "cleared" 0L (Hw.Machine.drain_irq m ~core:3)

(* ---- Page table ---- *)

let page_table_ops () =
  let pt = Hw.Page_table.create () in
  Hw.Page_table.map pt ~vpn:10 ~pfn:99 ~writable:false;
  (match Hw.Page_table.find pt ~vpn:10 with
  | Some pte ->
      checki "pfn" 99 pte.Hw.Page_table.pfn;
      Alcotest.(check bool) "read-only" false pte.Hw.Page_table.writable
  | None -> Alcotest.fail "mapping missing");
  Hw.Page_table.set_writable pt ~vpn:10 true;
  (match Hw.Page_table.find pt ~vpn:10 with
  | Some pte -> Alcotest.(check bool) "upgraded" true pte.Hw.Page_table.writable
  | None -> Alcotest.fail "mapping missing");
  checki "mapped count" 1 (Hw.Page_table.mapped pt);
  (match Hw.Page_table.unmap pt ~vpn:10 with
  | Some _ -> ()
  | None -> Alcotest.fail "unmap lost pte");
  checki "empty" 0 (Hw.Page_table.mapped pt);
  Alcotest.(check bool) "unmap absent" true (Hw.Page_table.unmap pt ~vpn:10 = None)

let page_table_remap_resets_dirty () =
  let pt = Hw.Page_table.create () in
  Hw.Page_table.map pt ~vpn:1 ~pfn:5 ~writable:true;
  (Option.get (Hw.Page_table.find pt ~vpn:1)).Hw.Page_table.dirty <- true;
  Hw.Page_table.map pt ~vpn:1 ~pfn:6 ~writable:false;
  let pte = Option.get (Hw.Page_table.find pt ~vpn:1) in
  Alcotest.(check bool) "dirty cleared" false pte.Hw.Page_table.dirty;
  checki "new pfn" 6 pte.Hw.Page_table.pfn

(* ---- EPT ---- *)

let ept_faults_once_per_frame () =
  let e = Hw.Ept.create ~granularity_bytes:2097152L () in
  let first = Hw.Ept.touch e c ~gpa:0L in
  Alcotest.(check bool) "first access faults" true (first > 0L);
  Alcotest.(check int64) "same frame free" 0L (Hw.Ept.touch e c ~gpa:4096L);
  Alcotest.(check bool) "next frame faults" true (Hw.Ept.touch e c ~gpa:2097152L > 0L);
  checki "fault count" 2 (Hw.Ept.faults e);
  checki "mapped" 2 (Hw.Ept.mapped_frames e)

let ept_unmap_range () =
  let e = Hw.Ept.create ~granularity_bytes:2097152L () in
  ignore (Hw.Ept.touch e c ~gpa:0L);
  ignore (Hw.Ept.touch e c ~gpa:2097152L);
  checki "dropped" 2 (Hw.Ept.unmap_range e ~gpa:0L ~len:4194304L);
  Alcotest.(check bool) "refault after unmap" true (Hw.Ept.touch e c ~gpa:0L > 0L)

let () =
  Alcotest.run "hw"
    [
      ("defs", [ Alcotest.test_case "conversions" `Quick defs_roundtrip ]);
      ( "costs",
        [
          Alcotest.test_case "memcpy" `Quick memcpy_costs;
          Alcotest.test_case "paper constants" `Quick paper_constants;
        ] );
      ("domains", [ Alcotest.test_case "transition costs" `Quick domain_costs ]);
      ("topology", [ Alcotest.test_case "numa layout" `Quick topology ]);
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick tlb_hit_miss;
          Alcotest.test_case "invalidate" `Quick tlb_invalidate;
          Alcotest.test_case "conflict eviction" `Quick tlb_conflict_eviction;
        ] );
      ( "ipi",
        [
          Alcotest.test_case "shootdown" `Quick ipi_shootdown;
          Alcotest.test_case "self only" `Quick ipi_self_only_is_free;
          Alcotest.test_case "full flush past 33 pages" `Quick
            ipi_invalidate_flush_threshold;
          Alcotest.test_case "drain irq" `Quick drain_irq_clears;
          QCheck_alcotest.to_alcotest ipi_shootdown_vs_per_page;
        ] );
      ( "page table",
        [
          Alcotest.test_case "map/unmap" `Quick page_table_ops;
          Alcotest.test_case "remap resets flags" `Quick page_table_remap_resets_dirty;
        ] );
      ( "ept",
        [
          Alcotest.test_case "fault per huge frame" `Quick ept_faults_once_per_frame;
          Alcotest.test_case "unmap range" `Quick ept_unmap_range;
        ] );
    ]
