(* Tests for the statistics library (lib/stats). *)

let checki = Alcotest.(check int)

(* ---- Histogram ---- *)

let histogram_basics () =
  let h = Stats.Histogram.create () in
  Alcotest.(check int64) "empty percentile" 0L (Stats.Histogram.percentile h 99.);
  List.iter (fun v -> Stats.Histogram.record h v) [ 10L; 20L; 30L; 40L ];
  checki "count" 4 (Stats.Histogram.count h);
  Alcotest.(check (float 0.01)) "mean" 25.0 (Stats.Histogram.mean h);
  Alcotest.(check int64) "max" 40L (Stats.Histogram.max_value h);
  Alcotest.(check int64) "min" 10L (Stats.Histogram.min_value h)

let histogram_percentile_accuracy =
  QCheck.Test.make ~name:"percentiles within ~4% of exact" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 10 500) (int_range 1 1_000_000))
    (fun samples ->
      let h = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record h (Int64.of_int v)) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let exact = sorted.(min (n - 1) (max 0 (int_of_float (ceil (float_of_int n *. p /. 100.)) - 1))) in
          let est = Int64.to_float (Stats.Histogram.percentile h p) in
          est >= float_of_int exact *. 0.96 && est <= float_of_int exact *. 1.07)
        [ 50.; 90.; 99. ])

(* Values below 32 land in width-1 buckets, so percentiles are exact:
   good for pinning down the rank arithmetic without bucket error. *)
let histogram_percentiles_exact () =
  let h = Stats.Histogram.create () in
  for v = 1 to 20 do
    Stats.Histogram.record h (Int64.of_int v)
  done;
  Alcotest.(check int64) "p50" 10L (Stats.Histogram.percentile h 50.);
  Alcotest.(check int64) "p95" 19L (Stats.Histogram.percentile h 95.);
  Alcotest.(check int64) "p99" 20L (Stats.Histogram.percentile h 99.);
  Alcotest.(check int64) "p100" 20L (Stats.Histogram.percentile h 100.);
  Alcotest.(check int64) "p0 clamps to first sample" 1L
    (Stats.Histogram.percentile h 0.)

let histogram_bucket_boundary () =
  (* 32 is the first value of the first log group; both its bucket index
     and bound round-trip exactly (index_of 32 = 32, bound_of 32 = 32). *)
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 31L;
  Stats.Histogram.record h 32L;
  Alcotest.(check int64) "p50 below boundary" 31L
    (Stats.Histogram.percentile h 50.);
  Alcotest.(check int64) "p100 at boundary" 32L
    (Stats.Histogram.percentile h 100.);
  Alcotest.(check int64) "min" 31L (Stats.Histogram.min_value h);
  Alcotest.(check int64) "max" 32L (Stats.Histogram.max_value h)

(* Quantile-at-least on sparse buckets: an extreme quantile of a small
   sample must clamp to the exact maximum sample, not report the ceiling
   of a log bucket no sample ever reached. *)
let histogram_percentile_small_n () =
  let h = Stats.Histogram.create () in
  (* 20 samples, max 99_999 — the raw bucket bound for the max's bucket
     is 100_352 (~0.35% above), so p999 without clamping would invent a
     latency the workload never exhibited *)
  for v = 1 to 19 do
    Stats.Histogram.record h (Int64.of_int (v * 1000))
  done;
  Stats.Histogram.record h 99_999L;
  Alcotest.(check int64) "p999 of 20 samples is the exact max" 99_999L
    (Stats.Histogram.percentile h 99.9);
  Alcotest.(check int64) "p99 too" 99_999L (Stats.Histogram.percentile h 99.);
  (* single sample: every quantile is that sample *)
  let one = Stats.Histogram.create () in
  Stats.Histogram.record one 12_345L;
  List.iter
    (fun p ->
      Alcotest.(check int64)
        (Printf.sprintf "p%.1f of one sample" p)
        12_345L
        (Stats.Histogram.percentile one p))
    [ 0.; 50.; 99.; 99.9; 100. ]

let histogram_percentile_never_undershoots =
  QCheck.Test.make
    ~name:"quantile-at-least: estimate >= exact order statistic, <= max"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_range 1 1_000_000))
    (fun samples ->
      samples = []
      ||
      let h = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record h (Int64.of_int v)) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let rank =
            min (n - 1)
              (max 0 (int_of_float (ceil (float_of_int n *. p /. 100.)) - 1))
          in
          let exact = Int64.of_int sorted.(rank) in
          let est = Stats.Histogram.percentile h p in
          Int64.compare est exact >= 0
          && Int64.compare est (Stats.Histogram.max_value h) <= 0)
        [ 50.; 90.; 99.; 99.9 ])

let histogram_merge_pure () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  for v = 1 to 10 do
    Stats.Histogram.record a (Int64.of_int v)
  done;
  for v = 11 to 20 do
    Stats.Histogram.record b (Int64.of_int v)
  done;
  let m = Stats.Histogram.merge a b in
  checki "merged count" 20 (Stats.Histogram.count m);
  Alcotest.(check (float 0.01)) "merged mean" 10.5 (Stats.Histogram.mean m);
  Alcotest.(check int64) "merged min" 1L (Stats.Histogram.min_value m);
  Alcotest.(check int64) "merged max" 20L (Stats.Histogram.max_value m);
  Alcotest.(check int64) "merged p50" 10L (Stats.Histogram.percentile m 50.);
  (* inputs untouched *)
  checki "a count" 10 (Stats.Histogram.count a);
  checki "b count" 10 (Stats.Histogram.count b);
  Alcotest.(check int64) "a p50" 5L (Stats.Histogram.percentile a 50.);
  (* merging empties is the identity / empty histogram *)
  let e = Stats.Histogram.create () in
  checki "empty+empty" 0 (Stats.Histogram.count (Stats.Histogram.merge e e));
  let ae = Stats.Histogram.merge a e in
  checki "a+empty count" 10 (Stats.Histogram.count ae);
  Alcotest.(check int64) "a+empty min" 1L (Stats.Histogram.min_value ae);
  Alcotest.(check int64) "a+empty max" 10L (Stats.Histogram.max_value ae)

let histogram_merge_agrees_with_merge_into =
  QCheck.Test.make ~name:"merge a b = merge_into on every percentile" ~count:50
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 100) (int_range 0 100_000))
        (list_of_size (QCheck.Gen.int_range 1 100) (int_range 0 100_000)))
    (fun (xs, ys) ->
      let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record a (Int64.of_int v)) xs;
      List.iter (fun v -> Stats.Histogram.record b (Int64.of_int v)) ys;
      let m = Stats.Histogram.merge a b in
      Stats.Histogram.merge_into ~src:a ~dst:b;
      Stats.Histogram.count m = Stats.Histogram.count b
      && List.for_all
           (fun p ->
             Stats.Histogram.percentile m p = Stats.Histogram.percentile b p)
           [ 10.; 50.; 90.; 99.; 99.9 ])

let histogram_merge_reset () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.record a 100L;
  Stats.Histogram.record b 300L;
  Stats.Histogram.merge_into ~src:a ~dst:b;
  checki "merged count" 2 (Stats.Histogram.count b);
  Alcotest.(check (float 1.)) "merged mean" 200. (Stats.Histogram.mean b);
  Stats.Histogram.reset b;
  checki "reset" 0 (Stats.Histogram.count b)

(* ---- Table_fmt ---- *)

let formatting () =
  Alcotest.(check string) "kcycles" "12.3K" (Stats.Table_fmt.kcycles 12345.);
  Alcotest.(check string) "cycles small" "950" (Stats.Table_fmt.kcycles 950.);
  Alcotest.(check string) "ops" "1.5 Kops/s" (Stats.Table_fmt.ops_per_sec 1500.);
  Alcotest.(check string) "mops" "2.50 Mops/s" (Stats.Table_fmt.ops_per_sec 2.5e6);
  Alcotest.(check string) "speedup" "2.58x" (Stats.Table_fmt.speedup 2.58);
  Alcotest.(check string) "us" "1.00 us" (Stats.Table_fmt.usec_of_cycles 2400.);
  Alcotest.(check string) "seconds" "1.50 s" (Stats.Table_fmt.seconds 1.5);
  Alcotest.(check string) "ms" "25.00 ms" (Stats.Table_fmt.seconds 0.025);
  Alcotest.(check string) "pct" "43.7%" (Stats.Table_fmt.pct 43.7)

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick histogram_basics;
          QCheck_alcotest.to_alcotest histogram_percentile_accuracy;
          Alcotest.test_case "exact percentiles" `Quick
            histogram_percentiles_exact;
          Alcotest.test_case "bucket boundary" `Quick histogram_bucket_boundary;
          Alcotest.test_case "p999 on small n clamps to max" `Quick
            histogram_percentile_small_n;
          QCheck_alcotest.to_alcotest histogram_percentile_never_undershoots;
          Alcotest.test_case "merge (pure)" `Quick histogram_merge_pure;
          QCheck_alcotest.to_alcotest histogram_merge_agrees_with_merge_into;
          Alcotest.test_case "merge/reset" `Quick histogram_merge_reset;
        ] );
      ("table_fmt", [ Alcotest.test_case "formatting" `Quick formatting ]);
    ]
