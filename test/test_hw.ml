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
  Metrics.Registry.reset ();
  let t = Hw.Tlb.create () in
  let miss = Hw.Tlb.access t c ~vpn:42 in
  check64 "miss pays walk" c.Hw.Costs.tlb_miss_walk miss;
  let hit = Hw.Tlb.access t c ~vpn:42 in
  check64 "hit free" 0L hit;
  checki "counters" 1 (Metrics.Registry.value "hw_tlb_misses");
  checki "hits" 1 (Metrics.Registry.value "hw_tlb_hits")

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
  let sent0 = Hw.Ipi.shootdowns_sent () in
  let cost =
    Hw.Ipi.shootdown m c ~mode:Hw.Ipi.Posted ~src:0 ~targets:[ 0; 1; 2 ] ~vpns:[ 7 ]
  in
  Alcotest.(check bool) "sender pays send+ack" true
    (cost >= Int64.add c.Hw.Costs.ipi_send_posted c.Hw.Costs.ipi_receive);
  checki "one batch" 1 (Hw.Ipi.shootdowns_sent () - sent0);
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

(* A shootdown must leave every core's TLB entries and its pending
   interrupt work exactly as clearing the batch page by page on each
   receiver does.  64-entry TLBs over 256 pages give slot conflicts,
   batches run from 1 to 70 pages (both sides of the 33-page flush
   threshold), and the target list may include [src]. *)
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
      let receivers = List.filter (fun t -> t <> src) targets in
      let npages = List.length vpns in
      let per_receiver =
        Int64.add c.Hw.Costs.ipi_receive
          (if npages > 33 then c.Hw.Costs.tlb_full_flush
           else Int64.mul (Int64.of_int npages) c.Hw.Costs.tlb_invlpg)
      in
      (* [m] takes the shootdown, [r] the per-page reference. *)
      let pair () =
        let m = machine () and r = machine () in
        let cost = Hw.Ipi.shootdown m c ~mode:Hw.Ipi.Posted ~src ~targets ~vpns in
        List.iter
          (fun t ->
            let tlb = (Hw.Machine.core r t).Hw.Machine.tlb in
            List.iter (fun vpn -> ignore (Hw.Tlb.invalidate_local tlb c ~vpn)) vpns;
            Hw.Machine.deliver_irq r ~core:t per_receiver)
          receivers;
        (m, r, cost)
      in
      let m, r, cost = pair () in
      let expect_cost =
        if receivers = [] then 0L
        else Int64.add (Hw.Ipi.send_cost c Hw.Ipi.Posted) per_receiver
      in
      (* Which pages a TLB holds, read by the hit/miss pattern of accesses
         over the pool.  A miss installs its page, so each residue class
         [k * cap + slot] is read on a fresh pair, one access per slot. *)
      let holds =
        List.init (pool / cap) (fun k ->
            let m, r, _ = pair () in
            let held mach i =
              List.init cap (fun slot ->
                  Hw.Tlb.access (Hw.Machine.core mach i).Hw.Machine.tlb c
                    ~vpn:((k * cap) + slot)
                  = 0L)
            in
            List.init cores (fun i -> held m i = held r i))
      in
      cost = expect_cost
      && List.for_all
           (fun i ->
             let a = Hw.Machine.core m i and b = Hw.Machine.core r i in
             a.Hw.Machine.irqs_received = b.Hw.Machine.irqs_received
             && Hw.Machine.drain_irq m ~core:i = Hw.Machine.drain_irq r ~core:i)
           (List.init cores Fun.id)
      && List.for_all (List.for_all Fun.id) holds)

(* A TLB matches a reference that keeps each slot's vpn and empties slots
   one by one, over accesses, local and remote invalidations and flushes
   on two TLBs of 16 entries. *)
type tlb_op =
  | Access of int * int
  | Invlpg of int * int
  | Pages of int list
  | Flush of int

let tlb_model =
  let cap = 16 and pool = 48 in
  let print = function
    | Access (i, v) -> Printf.sprintf "access %d %d" i v
    | Invlpg (i, v) -> Printf.sprintf "invlpg %d %d" i v
    | Pages vs -> "pages " ^ String.concat "," (List.map string_of_int vs)
    | Flush i -> Printf.sprintf "flush %d" i
  in
  let op =
    QCheck.Gen.(
      let tlb = int_bound 1 and vpn = int_bound (pool - 1) in
      frequency
        [
          (10, map2 (fun i v -> Access (i, v)) tlb vpn);
          (2, map2 (fun i v -> Invlpg (i, v)) tlb vpn);
          (2, map (fun vs -> Pages vs) (list_size (int_range 0 6) vpn));
          (2, map (fun i -> Flush i) tlb);
        ])
  in
  QCheck.Test.make ~name:"tlb matches a slot-by-slot reference" ~count:200
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_range 1 40) op))
    (fun ops ->
      let tlbs = Array.init 2 (fun _ -> Hw.Tlb.create ~capacity:cap ()) in
      let refs = Array.init 2 (fun _ -> Array.make cap (-1)) in
      let ref_access r v =
        if r.(v mod cap) = v then 0L
        else begin
          r.(v mod cap) <- v;
          c.Hw.Costs.tlb_miss_walk
        end
      in
      let ref_drop r v = if r.(v mod cap) = v then r.(v mod cap) <- -1 in
      List.for_all
        (function
          | Access (i, v) -> Hw.Tlb.access tlbs.(i) c ~vpn:v = ref_access refs.(i) v
          | Invlpg (i, v) ->
              ref_drop refs.(i) v;
              Hw.Tlb.invalidate_local tlbs.(i) c ~vpn:v = c.Hw.Costs.tlb_invlpg
          | Pages vs ->
              Hw.Tlb.invalidate_pages tlbs ~vpns:vs;
              Array.iter (fun r -> List.iter (ref_drop r) vs) refs;
              true
          | Flush i ->
              Array.fill refs.(i) 0 cap (-1);
              Hw.Tlb.flush tlbs.(i) c = c.Hw.Costs.tlb_full_flush)
        ops
      && List.for_all
           (fun i ->
             List.for_all
               (fun v -> Hw.Tlb.access tlbs.(i) c ~vpn:v = ref_access refs.(i) v)
               (List.init pool Fun.id))
           [ 0; 1 ])

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
  checki "pfn" 99 (Hw.Page_table.pfn pt ~vpn:10);
  Alcotest.(check bool) "read-only" false (Hw.Page_table.writable pt ~vpn:10);
  Hw.Page_table.set_writable pt ~vpn:10 true;
  Alcotest.(check bool) "upgraded" true (Hw.Page_table.writable pt ~vpn:10);
  checki "mapped count" 1 (Hw.Page_table.mapped pt);
  checki "unmap returns the frame" 99 (Hw.Page_table.unmap pt ~vpn:10);
  checki "empty" 0 (Hw.Page_table.mapped pt);
  checki "unmap absent" Hw.Page_table.no_frame (Hw.Page_table.unmap pt ~vpn:10)

let page_table_remap_resets_dirty () =
  let pt = Hw.Page_table.create () in
  Hw.Page_table.map pt ~vpn:1 ~pfn:5 ~writable:true;
  Hw.Page_table.set_dirty pt ~vpn:1;
  Alcotest.(check bool) "dirty set" true (Hw.Page_table.dirty pt ~vpn:1);
  Hw.Page_table.map pt ~vpn:1 ~pfn:6 ~writable:false;
  Alcotest.(check bool) "dirty cleared" false (Hw.Page_table.dirty pt ~vpn:1);
  Alcotest.(check bool) "read-only" false (Hw.Page_table.writable pt ~vpn:1);
  checki "new pfn" 6 (Hw.Page_table.pfn pt ~vpn:1)

(* The page table matches a table of (pfn, writable, dirty) over maps,
   unmaps, permission changes and load and store walks, on vpns on both
   sides of its initial 4,096-entry array and far past it.  [mapped]
   passes over the whole table, so it is compared once, at the end. *)
type pt_op =
  | Map of int * int * bool
  | Unmap of int
  | Set_writable of int * bool
  | Walk of int * bool

let page_table_model =
  let print = function
    | Map (v, p, w) -> Printf.sprintf "map %d->%d %b" v p w
    | Unmap v -> Printf.sprintf "unmap %d" v
    | Set_writable (v, w) -> Printf.sprintf "set_writable %d %b" v w
    | Walk (v, w) -> Printf.sprintf "walk %d write=%b" v w
  in
  let op =
    QCheck.Gen.(
      let vpn =
        oneof
          [
            int_bound 15;
            map (fun x -> 4088 + x) (int_bound 15);
            map (fun x -> 20_000 + x) (int_bound 15);
          ]
      in
      frequency
        [
          (3, map3 (fun v p w -> Map (v, p, w)) vpn (int_bound 100_000) bool);
          (1, map (fun v -> Unmap v) vpn);
          (1, map2 (fun v w -> Set_writable (v, w)) vpn bool);
          (4, map2 (fun v w -> Walk (v, w)) vpn bool);
        ])
  in
  QCheck.Test.make ~name:"page table matches a hash table" ~count:300
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let pt = Hw.Page_table.create () in
      let m = Hashtbl.create 16 in
      let no = Hw.Page_table.no_frame in
      let agrees v =
        let pfn, w, d =
          match Hashtbl.find_opt m v with
          | Some (p, w, d) -> (p, w, d)
          | None -> (no, false, false)
        in
        Hw.Page_table.pfn pt ~vpn:v = pfn
        && Hw.Page_table.writable pt ~vpn:v = w
        && Hw.Page_table.dirty pt ~vpn:v = d
      in
      List.for_all
        (function
          | Map (v, p, w) ->
              Hw.Page_table.map pt ~vpn:v ~pfn:p ~writable:w;
              Hashtbl.replace m v (p, w, false);
              agrees v
          | Unmap v ->
              let want =
                match Hashtbl.find_opt m v with
                | Some (p, _, _) ->
                    Hashtbl.remove m v;
                    p
                | None -> no
              in
              Hw.Page_table.unmap pt ~vpn:v = want && agrees v
          | Set_writable (v, w) ->
              Hw.Page_table.set_writable pt ~vpn:v w;
              (match Hashtbl.find_opt m v with
              | Some (p, _, d) -> Hashtbl.replace m v (p, w, d)
              | None -> ());
              agrees v
          | Walk (v, write) ->
              let want =
                match Hashtbl.find_opt m v with
                | Some (p, w, d) when (not write) || w ->
                    Hashtbl.replace m v (p, w, d || write);
                    p
                | _ -> no
              in
              Hw.Page_table.walk pt ~vpn:v ~write = want && agrees v)
        ops
      && Hw.Page_table.mapped pt = Hashtbl.length m)

(* ---- EPT ---- *)

let ept_faults_once_per_frame () =
  let e = Hw.Ept.create ~granularity_bytes:2097152L () in
  let first = Hw.Ept.touch e c ~gpa:0L in
  Alcotest.(check bool) "first access faults" true (first > 0L);
  Alcotest.(check int64) "same frame free" 0L (Hw.Ept.touch e c ~gpa:4096L);
  Alcotest.(check bool) "next frame faults" true (Hw.Ept.touch e c ~gpa:2097152L > 0L);
  checki "fault count" 2 (Hw.Ept.faults e);
  checki "mapped" 2 (Hw.Ept.mapped_frames e)

(* The EPT matches a set of huge frames over touches and range unmaps
   that reach past its initial 64-frame array, with the same frame
   arithmetic: [gpa / gran] to [(gpa + len - 1) / gran]. *)
type ept_op = Touch of int64 | Unmap_range of int64 * int64

let ept_model =
  let gran = 2097152L in
  let print = function
    | Touch g -> Printf.sprintf "touch %Ld" g
    | Unmap_range (g, l) -> Printf.sprintf "unmap %Ld+%Ld" g l
  in
  let addr =
    QCheck.Gen.(
      map2
        (fun f off -> Int64.add (Int64.mul (Int64.of_int f) gran) (Int64.of_int off))
        (int_bound 200)
        (oneof [ return 0; int_bound 2_097_151 ]))
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun g -> Touch g) addr);
          ( 1,
            map2
              (fun g l -> Unmap_range (g, Int64.of_int l))
              addr
              (int_bound (5 * 2_097_152)) );
        ])
  in
  QCheck.Test.make ~name:"ept matches a set of frames" ~count:300
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_range 1 50) op))
    (fun ops ->
      let e = Hw.Ept.create ~granularity_bytes:gran () in
      let set = Hashtbl.create 16 and faults = ref 0 in
      let frame g = Int64.to_int (Int64.div g gran) in
      let fault_cost = Int64.add (Int64.mul 2L c.Hw.Costs.vmexit) c.Hw.Costs.ept_fault in
      List.for_all
        (function
          | Touch g ->
              let want =
                if Hashtbl.mem set (frame g) then 0L
                else begin
                  Hashtbl.replace set (frame g) ();
                  incr faults;
                  fault_cost
                end
              in
              Hw.Ept.touch e c ~gpa:g = want
          | Unmap_range (g, l) ->
              let dropped = ref 0 in
              for f = frame g to frame (Int64.add g (Int64.sub l 1L)) do
                if Hashtbl.mem set f then begin
                  Hashtbl.remove set f;
                  incr dropped
                end
              done;
              Hw.Ept.unmap_range e ~gpa:g ~len:l = !dropped)
        ops
      && Hw.Ept.faults e = !faults
      && Hw.Ept.mapped_frames e = Hashtbl.length set)

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
          QCheck_alcotest.to_alcotest tlb_model;
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
          QCheck_alcotest.to_alcotest page_table_model;
        ] );
      ( "ept",
        [
          Alcotest.test_case "fault per huge frame" `Quick ept_faults_once_per_frame;
          Alcotest.test_case "unmap range" `Quick ept_unmap_range;
          QCheck_alcotest.to_alcotest ept_model;
        ] );
    ]
