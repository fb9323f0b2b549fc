(* Tests for Pift_obs: metric primitives, registry snapshots, span
   nesting, sink golden outputs, the guarantee that exporting a replay's
   metrics does not perturb the Tracker.stats record, and a golden of
   every layer's end-of-run export. *)

module Metric = Pift_obs.Metric
module Registry = Pift_obs.Registry
module Span = Pift_obs.Span
module Json = Pift_obs.Json
module Sink = Pift_obs.Sink
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Recorded = Pift_eval.Recorded

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- registry ------------------------------------------------------------ *)

let test_registry_round_trip () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"events seen" "app_events_total" in
  Metric.Counter.incr c;
  Metric.Counter.add c 2;
  let g = Registry.gauge reg ~help:"live bytes" "app_bytes" in
  Metric.Gauge.set g 7;
  Metric.Gauge.set g 4;
  let per =
    Registry.counter_family reg ~help:"per pid" ~label:"pid" "app_ops_total"
  in
  Metric.Counter.incr (per "1");
  Metric.Counter.incr (per "2");
  Metric.Counter.incr (per "1");
  (* registration is idempotent: same name returns the same cell *)
  Metric.Counter.incr (Registry.counter reg "app_events_total");
  checki "counter via find" 4
    (Option.get (Registry.find_counter reg "app_events_total"));
  Alcotest.(check (float 1e-9))
    "gauge via find" 4.
    (Option.get (Registry.find_gauge reg "app_bytes"));
  (* conflicting re-registration raises *)
  checkb "kind conflict raises" true
    (try
       ignore (Registry.gauge reg "app_events_total");
       false
     with Invalid_argument _ -> true);
  match Registry.snapshot reg with
  | [ events; bytes; ops ] ->
      checks "first sample" "app_events_total" events.Registry.s_name;
      checks "help kept" "events seen" events.Registry.s_help;
      (match events.Registry.s_points with
      | [ ([], Registry.P_counter 4) ] -> ()
      | _ -> Alcotest.fail "unexpected counter points");
      (match bytes.Registry.s_points with
      | [ ([], Registry.P_gauge { value = 4.; peak = 7. }) ] -> ()
      | _ -> Alcotest.fail "unexpected gauge point");
      (match ops.Registry.s_points with
      | [
       ([ ("pid", "1") ], Registry.P_counter 2);
       ([ ("pid", "2") ], Registry.P_counter 1);
      ] ->
          ()
      | _ -> Alcotest.fail "unexpected family points")
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l)

(* --- histogram bucket boundaries ----------------------------------------- *)

let test_histogram_buckets () =
  checki "bucket of 0" 0 (Metric.Histogram.bucket_of 0);
  checki "bucket of -5" 0 (Metric.Histogram.bucket_of (-5));
  checki "bucket of 1" 1 (Metric.Histogram.bucket_of 1);
  checki "bucket of 2" 2 (Metric.Histogram.bucket_of 2);
  checki "bucket of 3" 2 (Metric.Histogram.bucket_of 3);
  checki "bucket of 4" 3 (Metric.Histogram.bucket_of 4);
  checki "bucket of 7" 3 (Metric.Histogram.bucket_of 7);
  checki "bucket of 8" 4 (Metric.Histogram.bucket_of 8);
  checki "lower bound of 3" 4 (Metric.Histogram.lower_bound 3);
  checki "upper bound of 3" 7 (Metric.Histogram.upper_bound 3);
  let h = Metric.Histogram.create () in
  List.iter (Metric.Histogram.observe h) [ 1; 2; 3; 4; 7; 8 ];
  checki "count" 6 (Metric.Histogram.count h);
  checki "sum" 25 (Metric.Histogram.sum h);
  checki "max" 8 (Metric.Histogram.max_value h);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets"
    [ (1, 1); (3, 2); (7, 2); (15, 1) ]
    (Metric.Histogram.nonzero_buckets h)

(* --- spans --------------------------------------------------------------- *)

let test_span_nesting () =
  Span.reset ();
  let v =
    Span.with_ ~name:"outer" (fun () ->
        ignore (Span.with_ ~name:"a" (fun () -> 1));
        ignore (Span.with_ ~name:"b" (fun () -> 2));
        42)
  in
  checki "with_ returns f's value" 42 v;
  (match Span.roots () with
  | [ root ] ->
      checks "root name" "outer" (Span.name root);
      Alcotest.(check (list string))
        "children in start order" [ "a"; "b" ]
        (List.map Span.name (Span.children root));
      let child_total =
        List.fold_left
          (fun acc c -> acc +. Span.seconds c)
          0. (Span.children root)
      in
      checkb "root covers children" true (Span.seconds root >= child_total)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l));
  (* a raising body is still timed and filed *)
  Span.reset ();
  (try Span.with_ ~name:"boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  checki "raising span recorded" 1 (List.length (Span.roots ()))

(* --- sinks --------------------------------------------------------------- *)

let golden_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"events seen" "app_events_total" in
  Metric.Counter.add c 3;
  let g = Registry.gauge reg ~help:"live bytes" "app_bytes" in
  Metric.Gauge.set g 7;
  Metric.Gauge.set g 4;
  let h = Registry.histogram reg ~help:"payload sizes" "app_sizes" in
  Metric.Histogram.observe h 1;
  Metric.Histogram.observe h 5;
  let per =
    Registry.counter_family reg ~help:"per pid" ~label:"pid" "app_ops_total"
  in
  Metric.Counter.add (per "1") 2;
  Metric.Counter.incr (per "2");
  reg

let golden_spans =
  [ Span.make ~name:"run" ~seconds:0.25 [ Span.make ~name:"replay" ~seconds:0.125 [] ] ]

let test_jsonl_golden () =
  let json =
    Sink.snapshot_to_json ~run:"golden" ~spans:golden_spans
      (Registry.snapshot (golden_registry ()))
  in
  checks "jsonl line"
    ("{\"run\":\"golden\",\"metrics\":["
    ^ "{\"name\":\"app_events_total\",\"kind\":\"counter\",\
       \"help\":\"events seen\",\"points\":[{\"labels\":{},\"value\":3}]},"
    ^ "{\"name\":\"app_bytes\",\"kind\":\"gauge\",\"help\":\"live bytes\",\
       \"points\":[{\"labels\":{},\"value\":4.0,\"peak\":7.0}]},"
    ^ "{\"name\":\"app_sizes\",\"kind\":\"histogram\",\
       \"help\":\"payload sizes\",\"points\":[{\"labels\":{},\"count\":2,\
       \"sum\":6,\"max\":5,\"buckets\":[[1,1],[7,1]]}]},"
    ^ "{\"name\":\"app_ops_total\",\"kind\":\"counter\",\
       \"help\":\"per pid\",\"points\":[{\"labels\":{\"pid\":\"1\"},\
       \"value\":2},{\"labels\":{\"pid\":\"2\"},\"value\":1}]}],"
    ^ "\"spans\":[{\"name\":\"run\",\"seconds\":0.25,\"children\":\
       [{\"name\":\"replay\",\"seconds\":0.125,\"children\":[]}]}]}")
    (Json.to_string json);
  (* and the decoder inverts the encoder *)
  let reparsed = Json.of_string (Json.to_string json) in
  checks "run survives" "golden" (Sink.run_of_json reparsed);
  checkb "samples survive" true
    (Sink.samples_of_json reparsed = Registry.snapshot (golden_registry ()));
  checki "spans survive" 1 (List.length (Sink.spans_of_json reparsed))

let test_prometheus_golden () =
  let rendered =
    Format.asprintf "%a"
      (fun ppf () ->
        Sink.prometheus (Registry.snapshot (golden_registry ())) ppf ())
      ()
  in
  checks "prometheus exposition"
    "# HELP app_events_total events seen\n\
     # TYPE app_events_total counter\n\
     app_events_total 3\n\
     # HELP app_bytes live bytes\n\
     # TYPE app_bytes gauge\n\
     app_bytes 4\n\
     # TYPE app_bytes_peak gauge\n\
     app_bytes_peak 7\n\
     # HELP app_sizes payload sizes\n\
     # TYPE app_sizes histogram\n\
     app_sizes_bucket{le=\"1\"} 1\n\
     app_sizes_bucket{le=\"7\"} 2\n\
     app_sizes_bucket{le=\"+Inf\"} 2\n\
     app_sizes_sum 6\n\
     app_sizes_count 2\n\
     # HELP app_ops_total per pid\n\
     # TYPE app_ops_total counter\n\
     app_ops_total{pid=\"1\"} 2\n\
     app_ops_total{pid=\"2\"} 1\n"
    rendered

let test_prometheus_label_escaping () =
  (* Exactly backslash, double quote, and newline are escaped; tabs and
     other bytes pass through raw.  %S-style OCaml escaping would mangle
     the tab into \t, which Prometheus parsers reject. *)
  let reg = Registry.create () in
  let per = Registry.counter_family reg ~label:"kind" "esc_total" in
  Metric.Counter.incr (per "back\\slash");
  Metric.Counter.incr (per "quo\"te");
  Metric.Counter.incr (per "new\nline");
  Metric.Counter.incr (per "tab\there");
  let rendered =
    Format.asprintf "%a"
      (fun ppf () -> Sink.prometheus (Registry.snapshot reg) ppf ())
      ()
  in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec go i =
      i + n <= h && (String.sub rendered i n = needle || go (i + 1))
    in
    go 0
  in
  checkb "backslash doubled" true
    (contains "esc_total{kind=\"back\\\\slash\"} 1");
  checkb "quote escaped" true (contains "esc_total{kind=\"quo\\\"te\"} 1");
  checkb "newline escaped" true (contains "esc_total{kind=\"new\\nline\"} 1");
  checkb "tab passes through raw" true
    (contains "esc_total{kind=\"tab\there\"} 1")

(* --- instrumentation must not perturb results ---------------------------- *)

let test_metrics_do_not_change_stats () =
  let app = Option.get (Pift_workloads.Droidbench.find "StringConcat1") in
  let recorded = Recorded.record app in
  let plain = Recorded.replay ~policy:Policy.default recorded in
  let registry = Registry.create () in
  let metered =
    Recorded.replay ~metrics:registry ~policy:Policy.default recorded
  in
  checkb "stats identical" true
    (plain.Recorded.stats = metered.Recorded.stats);
  checkb "verdicts identical" true
    (plain.Recorded.verdicts = metered.Recorded.verdicts);
  (* and the registry agrees with the stats record *)
  let s = metered.Recorded.stats in
  let metric name = Option.get (Registry.find_counter registry name) in
  checki "taint ops" s.Tracker.taint_ops
    (metric "pift_tracker_taint_ops_total");
  checki "untaint ops" s.Tracker.untaint_ops
    (metric "pift_tracker_untaint_ops_total");
  checki "lookups" s.Tracker.lookups (metric "pift_tracker_lookups_total")

(* --- end-of-run exports ---------------------------------------------------- *)

(* Every layer's export into one registry, in the order [pift run-app
   --metrics-out] drives them (CPU and VM after recording, store and
   tracker after the replay, the storage pass, the hardware model),
   followed by a 2-job sweep.  The text pins metric names, help
   strings, labels, values, gauge peaks and registration order. *)
let export_golden =
  {|# HELP pift_cpu_stores_total store instructions retired
# TYPE pift_cpu_stores_total counter
pift_cpu_stores_total 61
# HELP pift_cpu_loads_total load instructions retired
# TYPE pift_cpu_loads_total counter
pift_cpu_loads_total 67
# HELP pift_cpu_instructions_total instructions retired
# TYPE pift_cpu_instructions_total counter
pift_cpu_instructions_total 551
# HELP pift_vm_bytecodes_total bytecodes dispatched, by execution mode
# TYPE pift_vm_bytecodes_total counter
pift_vm_bytecodes_total{mode="interpreter"} 11
# HELP pift_vm_frag_cache_misses_total fragments translated on a cache miss
# TYPE pift_vm_frag_cache_misses_total counter
pift_vm_frag_cache_misses_total 11
# HELP pift_vm_frag_cache_hits_total translation-fragment cache hits
# TYPE pift_vm_frag_cache_hits_total counter
pift_vm_frag_cache_hits_total 0
# HELP pift_store_add_ops_total range insertions into the taint store
# TYPE pift_store_add_ops_total counter
pift_store_add_ops_total 35
# HELP pift_store_remove_ops_total range removals from the taint store
# TYPE pift_store_remove_ops_total counter
pift_store_remove_ops_total 1
# HELP pift_store_merge_ops_total insertions coalesced into an existing range
# TYPE pift_store_merge_ops_total counter
pift_store_merge_ops_total 29
# HELP pift_store_ranges distinct ranges held by the store
# TYPE pift_store_ranges gauge
pift_store_ranges 5
# TYPE pift_store_ranges_peak gauge
pift_store_ranges_peak 6
# HELP pift_tracker_window_opens_total tainting windows opened or restarted, per process
# TYPE pift_tracker_window_opens_total counter
pift_tracker_window_opens_total{pid="1"} 33
# HELP pift_tracker_ranges distinct tainted ranges
# TYPE pift_tracker_ranges gauge
pift_tracker_ranges 5
# TYPE pift_tracker_ranges_peak gauge
pift_tracker_ranges_peak 6
# HELP pift_tracker_tainted_bytes currently tainted bytes across processes (Fig. 15)
# TYPE pift_tracker_tainted_bytes gauge
pift_tracker_tainted_bytes 100
# TYPE pift_tracker_tainted_bytes_peak gauge
pift_tracker_tainted_bytes_peak 104
# HELP pift_tracker_untaint_ops_total store ranges untainted (Fig. 16)
# TYPE pift_tracker_untaint_ops_total counter
pift_tracker_untaint_ops_total 1
# HELP pift_tracker_taint_ops_total store ranges tainted by propagation (Fig. 16)
# TYPE pift_tracker_taint_ops_total counter
pift_tracker_taint_ops_total 34
# HELP pift_tracker_tainted_loads_total queries that hit and opened a window
# TYPE pift_tracker_tainted_loads_total counter
pift_tracker_tainted_loads_total 33
# HELP pift_tracker_lookups_total load-time taint queries
# TYPE pift_tracker_lookups_total counter
pift_tracker_lookups_total 67
# HELP pift_tracker_events_total instruction events observed
# TYPE pift_tracker_events_total counter
pift_tracker_events_total 551
# HELP pift_storage_occupancy valid primary entries
# TYPE pift_storage_occupancy gauge
pift_storage_occupancy 5
# TYPE pift_storage_occupancy_peak gauge
pift_storage_occupancy_peak 6
# HELP pift_storage_writebacks_total entries written back to secondary storage
# TYPE pift_storage_writebacks_total counter
pift_storage_writebacks_total 0
# HELP pift_storage_drops_total insertions dropped when full
# TYPE pift_storage_drops_total counter
pift_storage_drops_total 0
# HELP pift_storage_evictions_total LRU evictions
# TYPE pift_storage_evictions_total counter
pift_storage_evictions_total 0
# HELP pift_storage_insertions_total range-cache insertions
# TYPE pift_storage_insertions_total counter
pift_storage_insertions_total 35
# HELP pift_storage_secondary_hits_total secondary (main-memory) hits after a primary miss
# TYPE pift_storage_secondary_hits_total counter
pift_storage_secondary_hits_total 0
# HELP pift_storage_primary_hits_total primary (on-chip) hits
# TYPE pift_storage_primary_hits_total counter
pift_storage_primary_hits_total 35
# HELP pift_storage_lookups_total range-cache lookups
# TYPE pift_storage_lookups_total counter
pift_storage_lookups_total 95
# HELP pift_hw_total_insns instructions in the modelled trace
# TYPE pift_hw_total_insns gauge
pift_hw_total_insns 551
# TYPE pift_hw_total_insns_peak gauge
pift_hw_total_insns_peak 551
# HELP pift_hw_pift_events loads + stores PIFT inspects
# TYPE pift_hw_pift_events gauge
pift_hw_pift_events 128
# TYPE pift_hw_pift_events_peak gauge
pift_hw_pift_events_peak 128
# HELP pift_hw_stall_cycles modelled CPU stall cycles from slow-path lookups (Fig. 17)
# TYPE pift_hw_stall_cycles gauge
pift_hw_stall_cycles 0
# TYPE pift_hw_stall_cycles_peak gauge
pift_hw_stall_cycles_peak 0
# HELP pift_hw_overhead_pct PIFT overhead over untracked execution, percent
# TYPE pift_hw_overhead_pct gauge
pift_hw_overhead_pct 0
# TYPE pift_hw_overhead_pct_peak gauge
pift_hw_overhead_pct_peak 0
# HELP pift_hw_sw_dift_overhead_pct inline software DIFT overhead, percent
# TYPE pift_hw_sw_dift_overhead_pct gauge
pift_hw_sw_dift_overhead_pct 400
# TYPE pift_hw_sw_dift_overhead_pct_peak gauge
pift_hw_sw_dift_overhead_pct_peak 400
# HELP pift_hw_event_reduction instructions per PIFT-processed event
# TYPE pift_hw_event_reduction gauge
pift_hw_event_reduction 4.30469
# TYPE pift_hw_event_reduction_peak gauge
pift_hw_event_reduction_peak 4.30469
# HELP pift_sweep_trace_insns instructions per recorded app trace
# TYPE pift_sweep_trace_insns histogram
pift_sweep_trace_insns_bucket{le="31"} 1
pift_sweep_trace_insns_bucket{le="255"} 3
pift_sweep_trace_insns_bucket{le="1023"} 4
pift_sweep_trace_insns_bucket{le="+Inf"} 4
pift_sweep_trace_insns_sum 968
pift_sweep_trace_insns_count 4
# HELP pift_sweep_replays_total tracker replays across the NIxNT grid
# TYPE pift_sweep_replays_total counter
pift_sweep_replays_total 800
# HELP pift_sweep_apps_total apps recorded by the sweep
# TYPE pift_sweep_apps_total counter
pift_sweep_apps_total 4
|}

let test_export_golden () =
  let registry = Registry.create () in
  let app = Option.get (Pift_workloads.Droidbench.find "StringConcat1") in
  let recorded = Recorded.record ~metrics:registry app in
  ignore (Recorded.replay ~metrics:registry ~policy:Policy.default recorded);
  let storage = Pift_core.Storage.create () in
  ignore
    (Recorded.replay
       ~store:(Pift_core.Store.of_storage storage)
       ~policy:Policy.default recorded);
  Pift_core.Storage.export ~metrics:registry storage;
  let trace = recorded.Recorded.trace in
  Pift_core.Hw_model.observe ~metrics:registry
    (Pift_core.Hw_model.estimate
       ~total_insns:(Pift_trace.Trace.length trace)
       ~loads:(Pift_trace.Trace.loads trace)
       ~stores:(Pift_trace.Trace.stores trace)
       ~secondary_hits:
         (Pift_core.Storage.stats storage).Pift_core.Storage.secondary_hits
       ());
  let apps =
    List.filteri (fun i _ -> i < 4) Pift_workloads.Droidbench.subset48
  in
  ignore (Pift_eval.Accuracy.sweep ~metrics:registry ~jobs:2 apps);
  checks "prometheus text" export_golden
    (Format.asprintf "%a"
       (fun ppf () -> Sink.prometheus (Registry.snapshot registry) ppf ())
       ())

let () =
  Alcotest.run "pift_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "round trip" `Quick test_registry_round_trip;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        ] );
      ("span", [ Alcotest.test_case "nesting" `Quick test_span_nesting ]);
      ( "sink",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "replay",
        [
          Alcotest.test_case "stats unchanged under metrics" `Quick
            test_metrics_do_not_change_stats;
        ] );
      ( "export",
        [
          Alcotest.test_case "run-app and sweep prometheus golden" `Quick
            test_export_golden;
        ] );
    ]
