(* kspan: log-bucketed latency histograms, request-scoped causal
   spans, and the crash flight recorder.

   Histogram coverage: empty/single-sample quantiles, the exact-bucket
   to log-bucket boundary (15/16/17/31/32), saturating counts, and
   qcheck properties (merge associativity, quantile monotonicity, and
   the 1/16 relative-error bound).

   Span coverage: the pipe pipeline run with spans attached populates
   per-stage and total histograms, balances opened/closed, leaves no
   span open, and lands Span_open/Span_close events in the trace;
   spans attached are cycle-identical to no spans at all.

   Flight recorder: a sabotaged explorer subject must produce a
   postmortem whose open-span set names the in-flight request, plus a
   black-box Chrome trace export; clean runs produce neither. *)

open Synthesis
module E = Repro_harness.Explorer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Histogram edge cases *)

let test_hist_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "min" 0 (Histogram.min_value h);
  check_int "max" 0 (Histogram.max_value h);
  check_int "p50" 0 (Histogram.quantile h 0.5);
  check_int "p999" 0 (Histogram.quantile h 0.999);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Histogram.mean h)

let test_hist_single_sample () =
  let h = Histogram.create () in
  Histogram.record h 12_345;
  (* clamped to [min,max]: one sample is exact at every quantile *)
  List.iter
    (fun q -> check_int (Fmt.str "q=%g" q) 12_345 (Histogram.quantile h q))
    [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  check_int "count" 1 (Histogram.count h)

let test_hist_bucket_boundaries () =
  (* 0..15 are exact buckets; 16 starts the shared log buckets *)
  List.iter
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      check_int (Fmt.str "exact value %d" v) v (Histogram.quantile h 0.5))
    [ 0; 1; 15 ];
  List.iter
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      let q = Histogram.quantile h 0.5 in
      (* single sample: still exact via the min/max clamp *)
      check_int (Fmt.str "clamped value %d" v) v q)
    [ 16; 17; 31; 32; 33; 1_000_000 ];
  (* distinct boundary values land in distinct buckets *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 15; 16; 17; 31; 32 ];
  check_int "five distinct buckets" 5 (List.length (Histogram.buckets h))

let test_hist_saturation () =
  let h = Histogram.create () in
  Histogram.record_n h 7 max_int;
  Histogram.record_n h 7 max_int;
  check_int "count saturates instead of wrapping" max_int (Histogram.count h);
  check_bool "count stays positive" true (Histogram.count h > 0);
  check_int "quantile still answers" 7 (Histogram.quantile h 0.5);
  Histogram.record_n h 9 (-5);
  check_int "negative n is a no-op" max_int (Histogram.count h)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 10; 20; 30 ];
  List.iter (Histogram.record b) [ 5; 40_000 ];
  let m = Histogram.merge a b in
  check_int "merged count" 5 (Histogram.count m);
  check_int "merged min" 5 (Histogram.min_value m);
  check_int "merged max" 40_000 (Histogram.max_value m);
  check_int "inputs unchanged" 3 (Histogram.count a)

(* ------------------------------------------------------------------ *)
(* Histogram properties *)

let hist_of l =
  let h = Histogram.create () in
  List.iter (Histogram.record h) l;
  h

let values_gen = QCheck.(list_of_size Gen.(0 -- 40) (int_bound 200_000))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    QCheck.(triple values_gen values_gen values_gen)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      Histogram.equal
        (Histogram.merge a (Histogram.merge b c))
        (Histogram.merge (Histogram.merge a b) c))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_bound 500_000))
              (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (q1, q2)) ->
      let h = hist_of xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Histogram.quantile h lo <= Histogram.quantile h hi)

let prop_quantile_relative_error =
  QCheck.Test.make ~name:"quantile error bounded by 1/16" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 500_000))
    (fun xs ->
      let h = hist_of xs in
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      n = 0
      || List.for_all
           (fun q ->
             (* same convention as the histogram: the ceil(q*n)-th
                smallest sample *)
             let rank =
               max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))
             in
             let want = List.nth sorted rank in
             let got = Histogram.quantile h q in
             abs (got - want) <= (want / 8) + 1)
           [ 0.25; 0.5; 0.9; 0.99 ])

(* ------------------------------------------------------------------ *)
(* Span lifecycle through the pipe pipeline *)

let test_pipeline_spans () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let sp = Kernel.attach_spans k in
  let pl = Repro_harness.Harness.Pipeline.build ~total:1024 b in
  Repro_harness.Harness.Pipeline.run pl;
  (* 1024 words in 8-word write bursts: 128 spans, all closed *)
  check_int "all spans closed" 0 (Kspan.open_count sp);
  check_int "opened" 128 (Metrics.read k.Kernel.metrics "kspan.opened");
  check_int "closed" 128 (Metrics.read k.Kernel.metrics "kspan.closed");
  check_int "failed" 0 (Metrics.read k.Kernel.metrics "kspan.failed");
  let hists = Metrics.histograms k.Kernel.metrics in
  let count name =
    match List.assoc_opt name hists with
    | Some h -> Histogram.count h
    | None -> Alcotest.failf "histogram %s missing" name
  in
  check_int "total latency histogram" 128 (count "kspan.pipe.total_cycles");
  check_int "write service histogram" 128
    (count "kspan.pipe.write.service_cycles");
  check_bool "read wait histogram populated" true
    (count "kspan.pipe.read.wait_cycles" > 0);
  let events = Ktrace.events tr in
  let n_of f = List.length (List.filter f events) in
  check_int "Span_open events" 128
    (n_of (fun e ->
         match e.Ktrace.ev_kind with Ktrace.Span_open _ -> true | _ -> false));
  check_int "Span_close events" 128
    (n_of (fun e ->
         match e.Ktrace.ev_kind with Ktrace.Span_close _ -> true | _ -> false));
  check_bool "Span_hop events" true
    (n_of (fun e ->
         match e.Ktrace.ev_kind with Ktrace.Span_hop _ -> true | _ -> false)
    > 0)

(* The overhead bench's span row: attached, the span probes ran (one
   span per 8-word burst), yet the run matches the plain one to the
   cycle and to the instruction. *)
let test_spans_on_cycle_identical () =
  let module Z = Repro_harness.Harness.Zero_cost in
  Alcotest.(check (list string)) "identical to the plain run" []
    (Z.mismatches ~total:1024 [ "span_on" ]);
  let k, _, _ = Z.workload ~total:1024 (Z.row "span_on") in
  check_int "the probes ran" 128 (Metrics.read k.Kernel.metrics "kspan.closed")

(* ------------------------------------------------------------------ *)
(* Flight recorder: postmortem from a failing explorer subject *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_postmortem_names_inflight () =
  let r = E.run_subject ~sabotage:true E.kpipe_subject ~seed:2 () in
  check_bool "sabotage detected" true (r.E.s_violations <> []);
  match r.E.s_postmortem with
  | None -> Alcotest.fail "failing subject produced no postmortem"
  | Some pm ->
    check_bool "postmortem names the failing check" true
      (contains ~needle:"subject_check/kpipe" pm);
    check_bool "open-span set names the in-flight pipe request" true
      (contains ~needle:"pipe" pm && contains ~needle:"open spans" pm);
    check_bool "black box dumped" true (contains ~needle:"black box" pm);
    (* collection is off, but the probes still feed the black box *)
    List.iter
      (fun ev ->
        check_bool ("black box holds " ^ ev) true (contains ~needle:ev pm))
      [ "queue_put"; "queue_get"; "switch_in"; "switch_out" ];
    (match r.E.s_blackbox_json with
    | Some json ->
      check_bool "blackbox export is chrome JSON" true
        (contains ~needle:"traceEvents" json)
    | None -> Alcotest.fail "no black-box export")

let test_clean_run_no_postmortem () =
  let r = E.run_subject E.kpipe_subject ~seed:2 () in
  check_bool "clean run" true (r.E.s_violations = []);
  check_bool "no postmortem" true (r.E.s_postmortem = None);
  check_bool "no blackbox export" true (r.E.s_blackbox_json = None)

(* ------------------------------------------------------------------ *)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "kspan"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample" `Quick test_hist_single_sample;
          Alcotest.test_case "bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "saturating counts" `Quick test_hist_saturation;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      qsuite "histogram-properties"
        [
          prop_merge_associative;
          prop_quantile_monotone;
          prop_quantile_relative_error;
        ];
      ( "spans",
        [
          Alcotest.test_case "pipeline lifecycle" `Quick test_pipeline_spans;
          Alcotest.test_case "spans-on cycle-identical" `Quick
            test_spans_on_cycle_identical;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "postmortem names in-flight request" `Slow
            test_postmortem_names_inflight;
          Alcotest.test_case "clean run has no postmortem" `Slow
            test_clean_run_no_postmortem;
        ] );
    ]
