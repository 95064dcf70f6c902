(* Tests for the always-on metrics registry (lib/metrics): registration
   semantics, snapshot merging across domains, exporter formats, the
   virtual-time sampling profiler's grid math, and the wiring through
   the engine. *)

let checki = Alcotest.(check int)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every test starts from a zeroed registry.  Families persist for the
   process lifetime by design, so tests use distinct family names. *)
let fresh () = Metrics.Registry.reset ()

(* ---- registry ----------------------------------------------------- *)

let counter_basics () =
  fresh ();
  let c = Metrics.Registry.counter ~help:"h" "t_counter_basics" in
  Metrics.Registry.incr c;
  Metrics.Registry.add c 41;
  checki "local value" 42 (Metrics.Registry.get c);
  checki "merged value" 42 (Metrics.Registry.value "t_counter_basics");
  Metrics.Registry.reset ();
  checki "reset zeroes" 0 (Metrics.Registry.value "t_counter_basics");
  Metrics.Registry.incr c;
  checki "cell survives reset" 1 (Metrics.Registry.value "t_counter_basics")

let label_canonicalization () =
  fresh ();
  let a =
    Metrics.Registry.counter
      ~labels:[ ("x", "1"); ("y", "2") ]
      "t_label_canon"
  in
  (* same series, label order reversed: must bind the same slot *)
  let b =
    Metrics.Registry.counter
      ~labels:[ ("y", "2"); ("x", "1") ]
      "t_label_canon"
  in
  Metrics.Registry.incr a;
  Metrics.Registry.incr b;
  checki "one series" 2
    (Metrics.Registry.value ~labels:[ ("x", "1"); ("y", "2") ] "t_label_canon");
  (* a different value combination is its own series *)
  let c =
    Metrics.Registry.counter
      ~labels:[ ("x", "1"); ("y", "3") ]
      "t_label_canon"
  in
  Metrics.Registry.incr c;
  checki "family sums series" 3 (Metrics.Registry.value "t_label_canon")

let registration_clashes () =
  fresh ();
  ignore (Metrics.Registry.counter "t_clash_kind");
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics: family \"t_clash_kind\" re-registered with another kind")
    (fun () -> ignore (Metrics.Registry.gauge "t_clash_kind"));
  ignore (Metrics.Registry.counter ~labels:[ ("a", "1") ] "t_clash_labels");
  Alcotest.(check bool) "label-name clash" true
    (try
       ignore (Metrics.Registry.counter ~labels:[ ("b", "1") ] "t_clash_labels");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad name rejected" true
    (try
       ignore (Metrics.Registry.counter "bad name!");
       false
     with Invalid_argument _ -> true)

let histogram_buckets () =
  fresh ();
  let h = Metrics.Registry.histogram "t_histo" in
  List.iter (Metrics.Registry.observe h) [ 0; 1; 5; 1024; -3 ];
  let s =
    List.find
      (fun (s : Metrics.Registry.sample) -> s.s_name = "t_histo")
      (Metrics.Registry.snapshot ())
  in
  checki "count" 5 s.Metrics.Registry.s_count;
  checki "sum" 1030 s.Metrics.Registry.s_value (* -3 clamps to 0 *);
  (* v <= 1 -> bucket 0; 4 <= 5 < 8 -> bucket 2; 1024 = 2^10 -> bucket 10 *)
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (0, 3); (2, 1); (10, 1) ]
    s.Metrics.Registry.s_buckets

let multi_domain_merge () =
  fresh ();
  let work () =
    (* bind on the running domain — cells are domain-local by design *)
    let c = Metrics.Registry.counter "t_domains" in
    for _ = 1 to 1000 do
      Metrics.Registry.incr c
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  work ();
  (* stores of joined domains are retained and merged *)
  checki "summed across domains" 3000 (Metrics.Registry.value "t_domains")

(* ---- exporters ---------------------------------------------------- *)

let csv_field_escaping () =
  let f = Metrics.Export.csv_field in
  Alcotest.(check string) "plain untouched" "abc" (f "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (f "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (f "a\"b");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (f "a\nb");
  Alcotest.(check string) "empty untouched" "" (f "")

let exporter_formats () =
  fresh ();
  let c =
    Metrics.Registry.counter ~help:"says \"hi\""
      ~labels:[ ("dev", "nvme0") ]
      "t_export_counter"
  in
  Metrics.Registry.add c 7;
  let h = Metrics.Registry.histogram "t_export_histo" in
  Metrics.Registry.observe h 5;
  let samples =
    List.filter
      (fun (s : Metrics.Registry.sample) ->
        contains ~needle:"t_export" s.Metrics.Registry.s_name)
      (Metrics.Registry.snapshot ())
  in
  let pairs = Metrics.Export.flat_pairs samples in
  Alcotest.(check (list (pair string int)))
    "flat pairs"
    [
      ("t_export_counter{dev=nvme0}", 7);
      ("t_export_histo_count", 1);
      ("t_export_histo_sum", 5);
    ]
    pairs;
  let json = Metrics.Export.json samples in
  Alcotest.(check bool) "json has labelled key" true
    (contains ~needle:"\"t_export_counter{dev=nvme0}\": 7" json);
  let prom = Metrics.Export.prometheus samples in
  Alcotest.(check bool) "prom help escaped" true
    (contains ~needle:"# HELP t_export_counter says \\\"hi\\\"" prom);
  Alcotest.(check bool) "prom type line" true
    (contains ~needle:"# TYPE t_export_histo histogram" prom);
  (* 4 <= 5 < 8 lands in exponent-2, cumulative le = 2^3 - 1 = 7 *)
  Alcotest.(check bool) "prom cumulative bucket" true
    (contains ~needle:"t_export_histo_bucket{le=\"7\"} 1" prom);
  Alcotest.(check bool) "prom +Inf bucket" true
    (contains ~needle:"t_export_histo_bucket{le=\"+Inf\"} 1" prom)

(* ---- profiler ----------------------------------------------------- *)

let profiler_grid_math () =
  fresh ();
  let p = Metrics.Profile.create ~period:10 () in
  Trace.start_profile p;
  Alcotest.(check bool) "on" true (Trace.on ());
  (* (0, 25] crosses grid points 10 and 20 -> 2 samples *)
  Metrics.Profile.charge p ~now:0 ~cycles:25 ~fiber:"f" ~label:"a";
  (* (25, 30] crosses 30 -> 1 sample *)
  Metrics.Profile.charge p ~now:25 ~cycles:5 ~fiber:"f" ~label:"b";
  (* (30, 39] crosses nothing *)
  Metrics.Profile.charge p ~now:30 ~cycles:9 ~fiber:"f" ~label:"c";
  Trace.stop_profile ();
  Alcotest.(check bool) "off" false (Trace.on ());
  Alcotest.(check string) "folded stacks" "f;a 2\nf;b 1\n"
    (Metrics.Profile.folded p);
  (* stop is idempotent, and a restart with a fresh profiler samples
     again while the stopped one stays readable *)
  Trace.stop_profile ();
  Alcotest.(check bool) "still off" false (Trace.on ());
  let q = Metrics.Profile.create ~period:10 () in
  Trace.start_profile q;
  Alcotest.(check bool) "restarted" true (Trace.on ());
  Metrics.Profile.charge q ~now:0 ~cycles:10 ~fiber:"g" ~label:"z";
  Trace.stop_profile ();
  Alcotest.(check string) "fresh profile" "g;z 1\n" (Metrics.Profile.folded q);
  Alcotest.(check string) "stopped profile kept" "f;a 2\nf;b 1\n"
    (Metrics.Profile.folded p)

let profiler_engine_integration () =
  fresh ();
  let run () =
    Metrics.Registry.reset ();
    let p = Metrics.Profile.create ~period:1000 () in
    Trace.start_profile p;
    let eng = Sim.Engine.create () in
    for i = 0 to 3 do
      ignore
        (Sim.Engine.spawn eng ~name:(Printf.sprintf "w%d" i) ~core:i (fun () ->
             (* 700+500 = 1200-cycle period, coprime with the 1000-cycle
                sampling grid, so grid points land on both span kinds *)
             for _ = 1 to 50 do
               Sim.Engine.delay ~label:"work" 700L;
               Sim.Engine.idle_wait 500L
             done))
    done;
    Sim.Engine.run eng;
    Trace.stop_profile ();
    (Metrics.Profile.folded p, Metrics.Registry.value "engine_events")
  in
  let f1, ev1 = run () in
  let f2, ev2 = run () in
  Alcotest.(check string) "folded deterministic" f1 f2;
  checki "event counts agree" ev1 ev2;
  Alcotest.(check bool) "events counted" true (ev1 > 0);
  Alcotest.(check bool) "work label attributed" true
    (contains ~needle:";work " f1);
  Alcotest.(check bool) "idle attributed" true (contains ~needle:";idle " f1)

(* ---- engine wiring ------------------------------------------------ *)

let blocked_report_events () =
  Metrics.Registry.reset ();
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"stuck" (fun () ->
         Sim.Engine.delay 100L;
         Sim.Engine.delay 100L;
         Sim.Engine.suspend (fun _resume -> ())));
  Sim.Engine.run eng;
  checki "deadlocked" 1 (Sim.Engine.live_fibers eng);
  let report = Sim.Engine.blocked_report eng in
  (* the initial spawn event + two delay wake-ups = 3 events executed
     before parking (the suspend's resume never fires) *)
  Alcotest.(check bool) "events progress shown" true
    (contains ~needle:"events=3" report);
  Alcotest.(check bool) "names the fiber" true
    (contains ~needle:"\"stuck\"" report)

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick counter_basics;
          Alcotest.test_case "label canonicalization" `Quick
            label_canonicalization;
          Alcotest.test_case "registration clashes" `Quick registration_clashes;
          Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
          Alcotest.test_case "multi-domain merge" `Quick multi_domain_merge;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv field escaping" `Quick csv_field_escaping;
          Alcotest.test_case "exporter formats" `Quick exporter_formats;
        ] );
      ( "profile",
        [
          Alcotest.test_case "grid math" `Quick profiler_grid_math;
          Alcotest.test_case "engine integration" `Quick
            profiler_engine_integration;
        ] );
      ( "engine",
        [
          Alcotest.test_case "blocked_report events" `Quick
            blocked_report_events;
        ] );
    ]
