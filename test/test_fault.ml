(* Tests for the fault-injection layer (lib/fault) and the
   crash-consistency checker (lib/fault/check.ml). *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)

(* ---- Plan spec parsing ---- *)

let spec_roundtrip () =
  let specs =
    [
      Fault.Plan.default;
      {
        Fault.Plan.seed = 11;
        read_error = 0.001;
        write_error = 0.002;
        permanent = 0.25;
        torn_write = 0.5;
        latency_spike = 0.01;
        spike_factor = 8;
        crash_at = Some 120000;
        node = None;
      };
      { Fault.Plan.default with Fault.Plan.crash_at = Some 1 };
      { Fault.Plan.default with Fault.Plan.crash_at = Some 9; node = Some 2 };
    ]
  in
  List.iter
    (fun s ->
      match Fault.Plan.parse (Fault.Plan.to_string s) with
      | Ok s' ->
          Alcotest.(check bool) (Fault.Plan.to_string s) true (s = s')
      | Error m -> Alcotest.fail m)
    specs;
  (match Fault.Plan.parse "" with
  | Ok s -> Alcotest.(check bool) "empty is default" true (s = Fault.Plan.default)
  | Error m -> Alcotest.fail m);
  (match Fault.Plan.parse "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  match Fault.Plan.parse "read=oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted"

(* ---- Draw determinism ---- *)

let draw_sequence spec =
  let p = Fault.Plan.make spec in
  let out = ref [] in
  let push s = out := s :: !out in
  for i = 0 to 199 do
    (match Fault.draw_read p ~dev:"d" ~page:i ~count:2 with
    | None -> push "r-ok"
    | Some e -> push ("r-" ^ Fault.error_to_string e));
    (match Fault.draw_write p ~dev:"d" ~page:(1000 + i) ~count:3 with
    | Fault.W_ok -> push "w-ok"
    | Fault.W_error e -> push ("w-" ^ Fault.error_to_string e)
    | Fault.W_torn n -> push (Printf.sprintf "w-torn%d" n));
    push (string_of_int (Fault.draw_spike p))
  done;
  (List.rev !out, Fault.Plan.counters p)

let draws_deterministic () =
  let spec =
    {
      Fault.Plan.default with
      Fault.Plan.read_error = 0.3;
      write_error = 0.3;
      torn_write = 0.5;
      latency_spike = 0.2;
      spike_factor = 8;
    }
  in
  let s1, c1 = draw_sequence spec in
  let s2, c2 = draw_sequence spec in
  Alcotest.(check (list string)) "same seed, same draws" s1 s2;
  Alcotest.(check (list (pair string int))) "same counters" c1 c2;
  let s3, _ = draw_sequence { spec with Fault.Plan.seed = spec.Fault.Plan.seed + 1 } in
  Alcotest.(check bool) "different seed, different draws" true (s1 <> s3)

let zero_probability_draws_nothing () =
  let s, counters = draw_sequence Fault.Plan.default in
  Alcotest.(check bool) "no injected faults" true
    (List.for_all (fun x -> x = "r-ok" || x = "w-ok" || x = "1") s);
  List.iter
    (fun (name, n) -> if name <> "probes" then checki name 0 n)
    counters

(* ---- Crash at an exact event ---- *)

let crash_at_exact_event () =
  let spec = { Fault.Plan.default with Fault.Plan.crash_at = Some 500 } in
  let run () =
    try
      Fault.with_plan (Fault.Plan.make spec) (fun () ->
          let eng = Sim.Engine.create () in
          ignore
            (Sim.Engine.spawn eng ~core:0 (fun () ->
                 for _ = 1 to 10_000 do
                   Sim.Engine.delay 10L
                 done));
          Sim.Engine.run eng;
          Alcotest.fail "expected a crash")
    with Fault.Crash { at_event } -> at_event
  in
  let a = run () in
  let b = run () in
  checki "same event on repeat" a b;
  Alcotest.(check bool) "at or just after the ordinal" true (a >= 500 && a <= 505)

(* ---- Access-layer retry policy ---- *)

let retry_exhaustion_and_backoff () =
  Metrics.Registry.reset ();
  let spec = { Fault.Plan.default with Fault.Plan.read_error = 1.0 } in
  let plan = Fault.Plan.make spec in
  let final = ref 0L in
  Fault.with_plan plan (fun () ->
      let eng = Sim.Engine.create () in
      let dev = Sdevice.Nvme.create ~name:"t-nvme" () in
      let acc = Sdevice.Access.spdk_nvme c dev in
      let dst = Bytes.create psz in
      let raised = ref false in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             match Sdevice.Access.read_pages acc ~page:0 ~count:1 ~dst with
             | () -> ()
             | exception Fault.Io_error { write = false; error = Fault.Transient; _ }
               ->
                 raised := true));
      Sim.Engine.run eng;
      Alcotest.(check bool) "transient read error surfaced" true !raised;
      final := Sim.Engine.now eng);
  checki "4 retries before giving up" 4 (Fault.Plan.retries plan);
  checki "registry agrees" 4 (Metrics.Registry.value "sdevice_io_retries");
  (* exponential virtual-time backoff: 20k + 40k + 80k + 160k cycles *)
  Alcotest.(check bool)
    (Printf.sprintf "backoff advanced virtual time (%Ld)" !final)
    true
    (!final >= 300_000L)

let permanent_fails_fast_and_sticks () =
  let spec =
    { Fault.Plan.default with Fault.Plan.read_error = 1.0; permanent = 1.0 }
  in
  let plan = Fault.Plan.make spec in
  Fault.with_plan plan (fun () ->
      let eng = Sim.Engine.create () in
      let dev = Sdevice.Nvme.create ~name:"t-nvme" () in
      let acc = Sdevice.Access.spdk_nvme c dev in
      let dst = Bytes.create psz in
      let errors = ref [] in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             for _ = 1 to 2 do
               match Sdevice.Access.read_pages acc ~page:7 ~count:1 ~dst with
               | () -> ()
               | exception Fault.Io_error { error; _ } -> errors := error :: !errors
             done));
      Sim.Engine.run eng;
      Alcotest.(check bool) "both permanent" true
        (!errors = [ Fault.Permanent; Fault.Permanent ]));
  checki "no retries on permanent failures" 0 (Fault.Plan.retries plan)

(* ---- Torn writes ---- *)

let torn_write_persists_page_prefix () =
  let spec =
    { Fault.Plan.default with Fault.Plan.write_error = 1.0; torn_write = 1.0 }
  in
  let plan = Fault.Plan.make spec in
  let dev = ref None in
  Fault.with_plan plan (fun () ->
      let eng = Sim.Engine.create () in
      let d = Sdevice.Nvme.create ~name:"t-nvme" () in
      dev := Some d;
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             let src = Bytes.make (4 * psz) 'T' in
             match
               Sdevice.Block_dev.write_result d ~addr:0L ~src ~src_off:0
                 ~len:(4 * psz)
             with
             | Ok () -> Alcotest.fail "expected the write to fail"
             | Error Fault.Transient -> ()
             | Error Fault.Permanent -> Alcotest.fail "permanent with perm=0"));
      Sim.Engine.run eng);
  Alcotest.(check bool) "torn write counted" true (Fault.Plan.torn_writes plan >= 1);
  (* the device holds a strict page-aligned prefix of the span: whole
     pages of 'T', then untouched zeros — never a partial page *)
  let store = Sdevice.Block_dev.store (Option.get !dev) in
  let page_bytes p =
    let b = Bytes.create psz in
    Sdevice.Pagestore.read_page store ~page:p ~dst:b;
    b
  in
  let uniform b ch =
    let ok = ref true in
    Bytes.iter (fun x -> if x <> ch then ok := false) b;
    !ok
  in
  let n = ref 0 in
  while !n < 4 && uniform (page_bytes !n) 'T' do
    incr n
  done;
  Alcotest.(check bool) "strict prefix" true (!n < 4);
  for p = !n to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "page %d untouched" p)
      true
      (uniform (page_bytes p) '\000')
  done

(* ---- SIGBUS through the DRAM cache ---- *)

let make_cache_rig () =
  let machine = Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  let cache =
    Mcache.Dram_cache.create ~costs:c ~machine ~page_table:pt
      (Mcache.Dram_cache.default_config ~frames:16)
  in
  let dev = Sdevice.Nvme.create ~name:"t-nvme" () in
  let access = Sdevice.Access.spdk_nvme c dev in
  Mcache.Dram_cache.register_file cache ~file_id:1 ~access
    ~translate:(fun p -> if p < 256 then Some p else None);
  Mcache.Dram_cache.set_shoot_cores cache [ 0 ];
  (cache, pt)

let key p = Mcache.Pagekey.make ~file:1 ~page:p

let sigbus_on_unreadable_page () =
  Metrics.Registry.reset ();
  let spec =
    { Fault.Plan.default with Fault.Plan.read_error = 1.0; permanent = 1.0 }
  in
  let plan = Fault.Plan.make spec in
  let cache = ref None in
  Fault.with_plan plan (fun () ->
      let ca, _pt = make_cache_rig () in
      cache := Some ca;
      let eng = Sim.Engine.create () in
      let got = ref false in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             try
               Mcache.Dram_cache.fault ca ~core:0 ~key:(key 3) ~vpn:10
                 ~write:false ()
             with Fault.Sigbus { file = 1; page = 3 } -> got := true));
      Sim.Engine.run eng;
      Alcotest.(check bool) "sigbus delivered with file/page" true !got);
  checki "cache counted it" 1 (Mcache.Dram_cache.sigbus_count (Option.get !cache));
  checki "registry agrees" 1 (Metrics.Registry.value "mcache_sigbus");
  checki "plan counted it" 1 (Fault.Plan.sigbus_count plan)

(* ---- Degradation to read-only ---- *)

let degrade_to_read_only_after_error_storm () =
  Metrics.Registry.reset ();
  let spec = { Fault.Plan.default with Fault.Plan.write_error = 1.0 } in
  let plan = Fault.Plan.make spec in
  let cache = ref None in
  Fault.with_plan plan (fun () ->
      let ca, _pt = make_cache_rig () in
      cache := Some ca;
      let eng = Sim.Engine.create () in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             Mcache.Dram_cache.fault ca ~core:0 ~key:(key 0) ~vpn:10 ~write:true ();
             (* every write-back round fails: msync refuses to ack (it
                raises Io_error, the page stays dirty) and after the
                streak limit the cache refuses new writes rather than
                acknowledging data it can no longer make durable *)
             for _ = 1 to 8 do
               match Mcache.Dram_cache.msync ca ~core:0 () with
               | () -> Alcotest.fail "msync acked a failed flush"
               | exception Fault.Io_error { write = true; _ } -> ()
             done;
             Alcotest.(check bool) "degraded" true (Mcache.Dram_cache.degraded ca);
             Alcotest.(check bool) "failed pages stayed dirty" true
               (Mcache.Dram_cache.dirty_pages ca >= 1);
             try
               Mcache.Dram_cache.fault ca ~core:0 ~key:(key 1) ~vpn:11 ~write:true ();
               Alcotest.fail "expected Read_only"
             with Fault.Read_only _ -> ()));
      Sim.Engine.run eng);
  let ca = Option.get !cache in
  Alcotest.(check bool) "write-back errors counted" true
    (Mcache.Dram_cache.wb_errors ca >= 8);
  checki "registry agrees" (Mcache.Dram_cache.wb_errors ca)
    (Metrics.Registry.value "mcache_wb_errors");
  Alcotest.(check bool) "plan write errors counted" true
    (Fault.Plan.write_errors plan >= 8);
  (* a reboot clears the degradation along with the volatile state *)
  Mcache.Dram_cache.crash ca;
  Alcotest.(check bool) "crash resets read-only" false (Mcache.Dram_cache.degraded ca)

(* ---- The crash-consistency checker ---- *)

let checker_micro_clean () =
  let r = Fault_check.Check.run_micro ~seeds:[ 1; 2 ] ~points:5 () in
  Alcotest.(check bool)
    (Format.asprintf "%a" (Fault_check.Check.pp_report "faultcheck") r)
    true (Fault_check.Check.ok r);
  checki "all combos crashed" r.Fault_check.Check.combos
    r.Fault_check.Check.crashes

let checker_kreon_clean () =
  let r = Fault_check.Check.run_kreon ~seeds:[ 1 ] ~points:5 () in
  Alcotest.(check bool)
    (Format.asprintf "%a" (Fault_check.Check.pp_report "faultcheck") r)
    true (Fault_check.Check.ok r)

let checker_catches_broken_variant () =
  (* wb_protect:false skips re-write-protecting clean pages after msync,
     so post-msync stores escape dirty tracking and are silently lost on
     the power cut — the checker must notice. *)
  let r =
    Fault_check.Check.run_micro ~broken:true ~seeds:[ 1; 2; 3 ] ~points:10 ()
  in
  Alcotest.(check bool) "violations reported" false (Fault_check.Check.ok r)

(* ---- The sweep driver, over a fake backend ---- *)

module Check = Fault_check.Check

(* Runs [events seed] events and records every spec it is given; a crash
   run on node 2 reports one violation. *)
let fake ?(fingerprint = fun () -> "") ~events seen (spec : Fault.Plan.spec) =
  seen := spec :: !seen;
  {
    Check.crashed = spec.crash_at <> None;
    events = events spec.seed;
    fingerprint = fingerprint ();
    run_violations = (if spec.node = Some 2 then [ "lost" ] else []);
  }

let sweep_flags_nondeterminism () =
  let calls = ref 0 in
  let bump _ =
    incr calls;
    !calls
  in
  List.iter
    (fun (what, once) ->
      match (Check.sweep ~mode:"m" ~seeds:[ 3 ] ~points:2 once).violations with
      | [ v ] ->
          Alcotest.(check bool)
            (what ^ " differs: " ^ v)
            true
            (String.starts_with ~prefix:"[m seed=3] nondeterministic: " v)
      | vs -> Alcotest.failf "%s differs: %d violations" what (List.length vs))
    [
      ( "fingerprint",
        fake
          ~fingerprint:(fun () -> string_of_int (bump ()))
          ~events:(fun _ -> 50)
          (ref []) );
      ("events", fake ~events:bump (ref []));
    ]

let sweep_crosses_ordinals_with_targets () =
  let seen = ref [] in
  (* seed 1 runs 2 events, so each of its ordinals clamps to 1 *)
  let events seed = if seed = 1 then 2 else 1000 in
  let r =
    Check.sweep ~mode:"m" ~targets:[ Some 0; Some 2 ] ~seeds:[ 1; 5 ]
      ~points:4 (fake ~events seen)
  in
  checki "combos = seeds x points x targets" (2 * 4 * 2) r.combos;
  checki "every crash run crashed" r.combos r.crashes;
  Alcotest.(check (list int))
    "ordinals are max 1 (events * i / (points + 1)), once per target"
    [ 1; 1; 1; 1; 1; 1; 1; 1; 200; 200; 400; 400; 600; 600; 800; 800 ]
    (List.filter_map (fun s -> s.Fault.Plan.crash_at) (List.rev !seen));
  Alcotest.(check (list string))
    "labels name the node"
    (List.map
       (fun (seed, at) -> Printf.sprintf "[m seed=%d crash=%d node=2] lost" seed at)
       [ (1, 1); (1, 1); (1, 1); (1, 1); (5, 200); (5, 400); (5, 600); (5, 800) ])
    r.violations

let sweep_owns_seed_crash_node () =
  let seen = ref [] in
  let spec =
    {
      Fault.Plan.seed = 77;
      read_error = 0.25;
      write_error = 0.125;
      permanent = 0.0625;
      torn_write = 0.5;
      latency_spike = 0.03125;
      spike_factor = 3;
      crash_at = Some 9;
      node = Some 4;
    }
  in
  ignore
    (Check.sweep ~mode:"m" ~targets:[ None; Some 1 ] ~spec ~seeds:[ 6 ]
       ~points:1
       (fake ~events:(fun _ -> 10) seen));
  let probe = { spec with seed = 6; crash_at = None; node = None } in
  Alcotest.(check (list string))
    "two probes, then ordinal 5 on each target; injection untouched"
    (List.map Fault.Plan.to_string
       [
         probe;
         probe;
         { probe with crash_at = Some 5 };
         { probe with crash_at = Some 5; node = Some 1 };
       ])
    (List.rev_map Fault.Plan.to_string !seen)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "spec roundtrip" `Quick spec_roundtrip;
          Alcotest.test_case "deterministic draws" `Quick draws_deterministic;
          Alcotest.test_case "zero-probability plan" `Quick
            zero_probability_draws_nothing;
        ] );
      ( "injection",
        [
          Alcotest.test_case "crash at exact event" `Quick crash_at_exact_event;
          Alcotest.test_case "retry + backoff" `Quick retry_exhaustion_and_backoff;
          Alcotest.test_case "permanent sticks" `Quick
            permanent_fails_fast_and_sticks;
          Alcotest.test_case "torn write prefix" `Quick
            torn_write_persists_page_prefix;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "sigbus" `Quick sigbus_on_unreadable_page;
          Alcotest.test_case "read-only fallback" `Quick
            degrade_to_read_only_after_error_storm;
        ] );
      ( "checker",
        [
          Alcotest.test_case "micro clean" `Quick checker_micro_clean;
          Alcotest.test_case "kreon clean" `Quick checker_kreon_clean;
          Alcotest.test_case "broken variant caught" `Quick
            checker_catches_broken_variant;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "nondeterministic probes" `Quick
            sweep_flags_nondeterminism;
          Alcotest.test_case "ordinals x targets" `Quick
            sweep_crosses_ordinals_with_targets;
          Alcotest.test_case "owns seed, crash and node" `Quick
            sweep_owns_seed_crash_node;
        ] );
    ]
