(* Unit and property tests for Pift_core: policy, range set, Algorithm 1
   tracker (differential against the naive reference), hardware storage. *)

module Range = Pift_util.Range
module Policy = Pift_core.Policy
module Range_set = Pift_core.Range_set
module Tracker = Pift_core.Tracker
module Reference = Pift_core.Reference
module Storage = Pift_core.Storage
module Store = Pift_core.Store
module Hw_model = Pift_core.Hw_model
module Event = Pift_trace.Event
module Insn = Pift_arm.Insn

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let r a b = Range.make a b

(* --- Policy ------------------------------------------------------------- *)

let test_policy () =
  let p = Policy.make ~ni:5 ~nt:2 () in
  checki "ni" 5 p.Policy.ni;
  checki "nt" 2 p.Policy.nt;
  checkb "untaint default" true p.Policy.untaint;
  checki "default ni" 13 Policy.default.Policy.ni;
  checki "default nt" 3 Policy.default.Policy.nt;
  checki "malware ni" 3 Policy.malware_catching.Policy.ni;
  checki "perfect ni" 18 Policy.perfect_droidbench.Policy.ni;
  Alcotest.check_raises "ni >= 1" (Invalid_argument "Policy.make: ni must be >= 1")
    (fun () -> ignore (Policy.make ~ni:0 ~nt:1 ()));
  Alcotest.check_raises "nt >= 1" (Invalid_argument "Policy.make: nt must be >= 1")
    (fun () -> ignore (Policy.make ~ni:1 ~nt:0 ()))

(* --- Range_set ----------------------------------------------------------- *)

let test_range_set_basic () =
  let s = Range_set.empty in
  checkb "empty" true (Range_set.is_empty s);
  let s = Range_set.add s (r 10 20) in
  checki "cardinal" 1 (Range_set.cardinal s);
  checki "bytes" 11 (Range_set.total_bytes s);
  checkb "overlap hit" true (Range_set.mem_overlap s (r 20 25));
  checkb "overlap miss" false (Range_set.mem_overlap s (r 21 25));
  checkb "covers" true (Range_set.covers s (r 12 18));
  checkb "covers not" false (Range_set.covers s (r 12 21))

let test_range_set_coalesce () =
  let s = Range_set.of_list [ r 0 4; r 10 14 ] in
  checki "two ranges" 2 (Range_set.cardinal s);
  (* overlapping merge *)
  let s1 = Range_set.add s (r 3 11) in
  checki "merged" 1 (Range_set.cardinal s1);
  checki "merged bytes" 15 (Range_set.total_bytes s1);
  (* adjacent merge *)
  let s2 = Range_set.add s (r 5 9) in
  checki "adjacent merged" 1 (Range_set.cardinal s2);
  (* non-touching insert *)
  let s3 = Range_set.add s (r 20 24) in
  checki "separate" 3 (Range_set.cardinal s3)

let test_range_set_remove () =
  let s = Range_set.of_list [ r 0 20 ] in
  let s1 = Range_set.remove s (r 5 10) in
  checki "split count" 2 (Range_set.cardinal s1);
  checki "split bytes" 15 (Range_set.total_bytes s1);
  checkb "left alive" true (Range_set.mem_overlap s1 (r 0 4));
  checkb "cut dead" false (Range_set.mem_overlap s1 (r 5 10));
  checkb "right alive" true (Range_set.mem_overlap s1 (r 11 20));
  let s2 = Range_set.remove s (r 0 20) in
  checkb "remove all" true (Range_set.is_empty s2);
  let s3 = Range_set.remove s (r 100 110) in
  checki "remove disjoint" 1 (Range_set.cardinal s3);
  (* removal spanning multiple entries *)
  let s4 = Range_set.of_list [ r 0 4; r 10 14; r 20 24 ] in
  let s5 = Range_set.remove s4 (r 2 22) in
  checki "multi-cut" 2 (Range_set.cardinal s5);
  checki "multi-cut bytes" 4 (Range_set.total_bytes s5)

(* Differential property: Range_set vs a per-byte Hashtbl model. *)
let op_gen =
  QCheck2.Gen.(
    let range_g =
      let* lo = int_range 0 120 in
      let* len = int_range 1 24 in
      return (Range.of_len lo len)
    in
    let* op = int_range 0 2 in
    let* range = range_g in
    return (op, range))

let prop_range_set_model =
  QCheck2.Test.make ~name:"range set agrees with a per-byte model"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let model = Hashtbl.create 64 in
      let set = ref Range_set.empty in
      let ok = ref true in
      List.iter
        (fun (op, range) ->
          match op with
          | 0 ->
              set := Range_set.add !set range;
              for x = Range.lo range to Range.hi range do
                Hashtbl.replace model x ()
              done
          | 1 ->
              set := Range_set.remove !set range;
              for x = Range.lo range to Range.hi range do
                Hashtbl.remove model x
              done
          | _ ->
              let naive = ref false in
              for x = Range.lo range to Range.hi range do
                if Hashtbl.mem model x then naive := true
              done;
              if Range_set.mem_overlap !set range <> !naive then ok := false)
        ops;
      (* final invariants: byte count matches; ranges disjoint and
         non-adjacent (canonical form) *)
      if Range_set.total_bytes !set <> Hashtbl.length model then ok := false;
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
            Range.hi a + 1 < Range.lo b && disjoint rest
        | [ _ ] | [] -> true
      in
      if not (disjoint (Range_set.ranges !set)) then ok := false;
      !ok)

(* --- Tracker: Algorithm 1 scenarios -------------------------------------- *)

let load range k =
  { Event.seq = k; k; pid = 1; insn = Insn.Nop; access = Event.Load range }

let store range k =
  { Event.seq = k; k; pid = 1; insn = Insn.Nop; access = Event.Store range }

let other k =
  { Event.seq = k; k; pid = 1; insn = Insn.Nop; access = Event.Other }

let feed tracker events = List.iter (Tracker.observe tracker) events

let test_tracker_window () =
  let t = Tracker.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  (* tainted load opens a window; store at distance 2 is tainted *)
  feed t [ load (r 100 101) 1; other 2; store (r 200 203) 3 ];
  checkb "in-window store tainted" true
    (Tracker.is_tainted t ~pid:1 (r 200 203));
  (* store at distance 5 > NI: untainted instead *)
  feed t [ store (r 200 201) 6 ];
  checkb "outside window untaints" false
    (Tracker.is_tainted t ~pid:1 (r 200 201));
  checkb "rest of range still tainted" true
    (Tracker.is_tainted t ~pid:1 (r 202 203))

let test_tracker_nt_cap () =
  let t = Tracker.create ~policy:(Policy.make ~ni:10 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  feed t
    [
      load (r 100 101) 1;
      store (r 200 200) 2;
      store (r 210 210) 3;
      store (r 220 220) 4;
    ];
  checkb "store 1 tainted" true (Tracker.is_tainted t ~pid:1 (r 200 200));
  checkb "store 2 tainted" true (Tracker.is_tainted t ~pid:1 (r 210 210));
  checkb "store 3 beyond NT" false (Tracker.is_tainted t ~pid:1 (r 220 220));
  let s = Tracker.stats t in
  checki "taint ops" 2 s.Tracker.taint_ops;
  checki "tainted loads" 1 s.Tracker.tainted_loads

let test_tracker_window_restart () =
  let t = Tracker.create ~policy:(Policy.make ~ni:4 ~nt:1 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  feed t
    [
      load (r 100 100) 1;
      store (r 200 200) 2 (* nt exhausted *);
      load (r 105 105) 3 (* window restarts, nt resets *);
      store (r 210 210) 4;
    ];
  checkb "second window taints again" true
    (Tracker.is_tainted t ~pid:1 (r 210 210))

let test_tracker_untaint_disabled () =
  let t =
    Tracker.create ~policy:(Policy.make ~untaint:false ~ni:2 ~nt:1 ()) ()
  in
  Tracker.taint_source t ~pid:1 (r 100 110);
  feed t [ store (r 105 106) 1 ];
  checkb "no untaint when disabled" true
    (Tracker.is_tainted t ~pid:1 (r 105 106));
  let t2 =
    Tracker.create ~policy:(Policy.make ~untaint:true ~ni:2 ~nt:1 ()) ()
  in
  Tracker.taint_source t2 ~pid:1 (r 100 110);
  feed t2 [ store (r 105 106) 1 ];
  checkb "untaint when enabled" false
    (Tracker.is_tainted t2 ~pid:1 (r 105 106))

(* Fig. 15 plots tainted bytes over the instruction stream; an explicit
   untaint (e.g. a scrubbing intrinsic) must show up as a dip in the
   series, not just in a later event's sample.  untaint_range used to
   skip the peak/series update, so the dip was invisible until the next
   observed event — and absent entirely at end of trace. *)
let test_tracker_untaint_range_records_dip () =
  let module Series = Pift_util.Series in
  let t = Tracker.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 199);
  feed t [ load (r 100 101) 1; store (r 300 303) 2 ];
  let series = Tracker.tainted_bytes_series t in
  let before = Option.get (Series.last_value series) in
  checki "bytes before untaint" 104 before;
  Tracker.untaint_range t ~pid:1 (r 150 199);
  checkb "range untainted" false (Tracker.is_tainted t ~pid:1 (r 150 199));
  checki "series records the dip" 54
    (Option.get (Series.last_value series));
  checki "peak survives the dip" 104
    (Tracker.stats t).Tracker.max_tainted_bytes

let test_tracker_per_pid () =
  let t = Tracker.create ~policy:(Policy.make ~ni:5 ~nt:1 ()) () in
  Tracker.taint_source t ~pid:1 (r 100 110);
  (* pid 2's load of the same addresses sees clean state *)
  Tracker.observe t
    { Event.seq = 1; k = 1; pid = 2; insn = Insn.Nop;
      access = Event.Load (r 100 101) };
  Tracker.observe t
    { Event.seq = 2; k = 2; pid = 2; insn = Insn.Nop;
      access = Event.Store (r 300 301) };
  checkb "no cross-pid window" false (Tracker.is_tainted t ~pid:2 (r 300 301));
  (* pid 1's window does not serve pid 2's stores *)
  Tracker.observe t
    { Event.seq = 3; k = 3; pid = 1; insn = Insn.Nop;
      access = Event.Load (r 100 101) };
  Tracker.observe t
    { Event.seq = 4; k = 4; pid = 2; insn = Insn.Nop;
      access = Event.Store (r 310 311) };
  checkb "window is per-process" false
    (Tracker.is_tainted t ~pid:2 (r 310 311))

(* Regression: a hand-built 10-event trace with known taint traffic must
   yield the same taint_ops/untaint_ops/lookups through the legacy
   [stats] record and the [pift_tracker_*] metrics registry. *)
let test_tracker_ten_event_counts () =
  let registry = Pift_obs.Registry.create () in
  let t =
    Tracker.create ~policy:(Policy.make ~ni:4 ~nt:2 ()) ~metrics:registry ()
  in
  Tracker.taint_source t ~pid:1 (r 100 120);
  feed t
    [
      load (r 100 101) 1 (* tainted load: window opens *);
      other 2;
      store (r 200 203) 3 (* taint op 1 *);
      store (r 210 211) 4 (* taint op 2: NT reached *);
      store (r 220 221) 5 (* NT exhausted, clean target: no-op *);
      load (r 50 51) 6 (* clean lookup *);
      store (r 200 201) 7 (* outside window, tainted target: untaint *);
      load (r 210 210) 8 (* tainted load: window restarts *);
      store (r 230 231) 9 (* taint op 3 *);
      other 10;
    ];
  let s = Tracker.stats t in
  checki "events" 10 s.Tracker.events;
  checki "lookups" 3 s.Tracker.lookups;
  checki "tainted loads" 2 s.Tracker.tainted_loads;
  checki "taint ops" 3 s.Tracker.taint_ops;
  checki "untaint ops" 1 s.Tracker.untaint_ops;
  let metric name =
    Option.value ~default:(-1) (Pift_obs.Registry.find_counter registry name)
  in
  checki "metric events" s.Tracker.events (metric "pift_tracker_events_total");
  checki "metric lookups" s.Tracker.lookups
    (metric "pift_tracker_lookups_total");
  checki "metric tainted loads" s.Tracker.tainted_loads
    (metric "pift_tracker_tainted_loads_total");
  checki "metric taint ops" s.Tracker.taint_ops
    (metric "pift_tracker_taint_ops_total");
  checki "metric untaint ops" s.Tracker.untaint_ops
    (metric "pift_tracker_untaint_ops_total")

(* Differential property: Tracker vs the naive Reference on random event
   streams. *)
let events_gen =
  QCheck2.Gen.(
    let range_g =
      let* lo = int_range 0 100 in
      let* len = int_range 1 8 in
      return (Range.of_len lo len)
    in
    let event_g =
      let* kind = int_range 0 2 in
      let* range = range_g in
      return (kind, range)
    in
    list_size (int_range 1 120) event_g)

let prop_tracker_reference =
  QCheck2.Test.make ~name:"tracker agrees with the naive Algorithm 1 model"
    ~count:300
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 4) events_gen)
    (fun (ni, nt, events) ->
      let policy = Policy.make ~ni ~nt () in
      let tracker = Tracker.create ~policy () in
      let reference = Reference.create policy in
      Tracker.taint_source tracker ~pid:1 (r 0 10);
      Reference.taint_source reference ~pid:1 (r 0 10);
      let ok = ref true in
      List.iteri
        (fun i (kind, range) ->
          let k = i + 1 in
          let e =
            match kind with
            | 0 -> load range k
            | 1 -> store range k
            | _ -> other k
          in
          Tracker.observe tracker e;
          Reference.observe reference e)
        events;
      (* byte-exact agreement *)
      for x = 0 to 120 do
        if
          Tracker.is_tainted tracker ~pid:1 (Range.byte x)
          <> Reference.is_tainted reference ~pid:1 (Range.byte x)
        then ok := false
      done;
      let tracker_bytes =
        List.fold_left
          (fun acc range -> acc + Range.length range)
          0
          (Tracker.tainted_ranges tracker ~pid:1)
      in
      if tracker_bytes <> Reference.tainted_bytes reference then ok := false;
      !ok)

(* --- Provenance ------------------------------------------------------------ *)

module Provenance = Pift_core.Provenance

let test_provenance_labels () =
  let p = Provenance.create ~policy:(Policy.make ~ni:5 ~nt:2 ()) () in
  Provenance.taint_source p ~pid:1 ~label:"IMEI" (r 100 110);
  Provenance.taint_source p ~pid:1 ~label:"GPS" (r 200 210);
  let obs e = Provenance.observe p e in
  (* a load touching only the IMEI range propagates only that label *)
  obs (load (r 100 101) 1);
  obs (store (r 300 303) 2);
  checkb "imei label" true
    (Provenance.labels_of p ~pid:1 (r 300 303) = [ "IMEI" ]);
  (* a load spanning both propagates both *)
  Provenance.taint_source p ~pid:1 ~label:"GPS" (r 304 307);
  obs (load (r 104 106) 10);
  obs (load (r 204 206) 11);
  obs (store (r 400 403) 12);
  checkb "gps label" true
    (Provenance.labels_of p ~pid:1 (r 400 403) = [ "GPS" ]);
  checkb "is_tainted" true (Provenance.is_tainted p ~pid:1 (r 400 403));
  checkb "clean range" false (Provenance.is_tainted p ~pid:1 (r 500 501));
  checkb "all labels" true (Provenance.all_labels p = [ "GPS"; "IMEI" ]);
  checkb "bytes per label" true (Provenance.tainted_bytes p ~label:"IMEI" > 0)

let test_provenance_union_and_untaint () =
  let p = Provenance.create ~policy:(Policy.make ~ni:8 ~nt:2 ()) () in
  Provenance.taint_source p ~pid:1 ~label:"A" (r 0 10);
  Provenance.taint_source p ~pid:1 ~label:"B" (r 8 20);
  let obs e = Provenance.observe p e in
  (* load overlapping both label ranges -> stores carry the union *)
  obs (load (r 9 10) 1);
  obs (store (r 100 103) 2);
  checkb "union of labels" true
    (Provenance.labels_of p ~pid:1 (r 100 103) = [ "A"; "B" ]);
  (* out-of-window store untaints all labels *)
  obs (store (r 100 103) 50);
  checkb "untainted" false (Provenance.is_tainted p ~pid:1 (r 100 103));
  (* window semantics match the plain tracker *)
  let t = Tracker.create ~policy:(Policy.make ~ni:8 ~nt:2 ()) () in
  Tracker.taint_source t ~pid:1 (r 0 20);
  feed t [ load (r 9 10) 1; store (r 100 103) 2; store (r 100 103) 50 ];
  checkb "agrees with tracker" true
    (Tracker.is_tainted t ~pid:1 (r 100 103)
    = Provenance.is_tainted p ~pid:1 (r 100 103))

let test_provenance_nt_cap_merged_labels () =
  (* The NT store cap is a property of the window, not of any one
     label: a load spanning two label ranges opens one window carrying
     both, and each tainting store counts once against NT — not once
     per label.  Otherwise the per-label union would drift from the
     plain tracker's single-window state. *)
  let policy = Policy.make ~ni:20 ~nt:2 () in
  let p = Provenance.create ~policy () in
  Provenance.taint_source p ~pid:1 ~label:"A" (r 0 10);
  Provenance.taint_source p ~pid:1 ~label:"B" (r 8 20);
  let obs e = Provenance.observe p e in
  obs (load (r 9 10) 1);
  obs (store (r 100 103) 2);
  obs (store (r 200 203) 3);
  obs (store (r 300 303) 4);
  (* first two stores carry both labels, the third hits a closed window *)
  checkb "store 1 carries both" true
    (Provenance.labels_of p ~pid:1 (r 100 103) = [ "A"; "B" ]);
  checkb "store 2 carries both" true
    (Provenance.labels_of p ~pid:1 (r 200 203) = [ "A"; "B" ]);
  checkb "store 3 beyond NT is clean" false
    (Provenance.is_tainted p ~pid:1 (r 300 303));
  (* same cap as the plain tracker over the same events *)
  let t = Tracker.create ~policy () in
  Tracker.taint_source t ~pid:1 (r 0 20);
  feed t [ load (r 9 10) 1; store (r 100 103) 2; store (r 200 203) 3;
           store (r 300 303) 4 ];
  List.iter
    (fun range ->
      checkb "union matches tracker" true
        (Tracker.is_tainted t ~pid:1 range
        = Provenance.is_tainted p ~pid:1 range))
    [ r 100 103; r 200 203; r 300 303 ];
  (* a fresh load reopens the window with a fresh NT budget *)
  obs (load (r 0 1) 30);
  obs (store (r 300 303) 31);
  checkb "reopened window taints again" true
    (Provenance.labels_of p ~pid:1 (r 300 303) = [ "A" ])

let test_provenance_entries_sorted () =
  let p = Provenance.create ~policy:(Policy.make ~ni:5 ~nt:3 ()) () in
  Provenance.taint_source p ~pid:2 ~label:"Z" (r 50 60);
  Provenance.taint_source p ~pid:1 ~label:"B" (r 30 40);
  Provenance.taint_source p ~pid:1 ~label:"A" (r 300 310);
  Provenance.taint_source p ~pid:1 ~label:"A" (r 0 10);
  let keys = List.map fst (Provenance.entries p) in
  checkb "entries sorted by (pid, label)" true
    (keys = [ (1, "A"); (1, "B"); (2, "Z") ]);
  List.iter
    (fun (_, ranges) ->
      let los = List.map Range.lo ranges in
      checkb "ranges ascending" true (List.sort compare los = los))
    (Provenance.entries p);
  (* untaint_range splits per-label sets without touching other pids *)
  Provenance.untaint_range p ~pid:1 (r 4 6);
  checkb "untaint splits the A set" true
    (match List.assoc_opt (1, "A") (Provenance.entries p) with
    | Some ranges -> List.length ranges = 3
    | None -> false);
  checkb "other pid untouched" true
    (List.assoc_opt (2, "Z") (Provenance.entries p) = Some [ r 50 60 ])

let test_provenance_backends_agree () =
  (* identical event feed under every exact backend -> identical
     per-label entries *)
  let run backend =
    let p =
      Provenance.create ~policy:(Policy.make ~ni:6 ~nt:2 ()) ~backend ()
    in
    Provenance.taint_source p ~pid:1 ~label:"IMEI" (r 100 120);
    Provenance.taint_source p ~pid:1 ~label:"GPS" (r 115 130);
    List.iter (Provenance.observe p)
      [ load (r 116 118) 1; store (r 200 203) 2; store (r 210 213) 3;
        load (r 100 101) 10; store (r 220 223) 11 ];
    Provenance.untaint_range p ~pid:1 (r 211 212);
    Provenance.entries p
  in
  match List.map run Pift_core.Store.all_backends with
  | [] -> Alcotest.fail "no backends"
  | reference :: rest ->
      checkb "reference is non-trivial" true (List.length reference >= 2);
      List.iter
        (fun other -> checkb "backend-independent entries" true
            (other = reference))
        rest

(* --- Deferred (buffered) tracking ------------------------------------------ *)

module Deferred = Pift_core.Deferred

let test_deferred_equals_online () =
  (* with a big enough buffer, deferred check = online check *)
  let policy = Policy.make ~ni:3 ~nt:2 () in
  let events =
    [ load (r 100 101) 1; other 2; store (r 200 203) 3; store (r 300 301) 9 ]
  in
  let online = Tracker.create ~policy () in
  Tracker.taint_source online ~pid:1 (r 100 110);
  feed online events;
  let d = Deferred.create ~policy ~buffer_size:64 ~drain_batch:4 () in
  Deferred.taint_source d ~pid:1 (r 100 110);
  List.iter (Deferred.observe d) events;
  checkb "events buffered" true (Deferred.buffered d > 0);
  List.iter
    (fun range ->
      checkb "agrees with online" true
        (Deferred.check d ~pid:1 range = Tracker.is_tainted online ~pid:1 range))
    [ r 200 203; r 300 301; r 100 110 ];
  checki "no drops" 0 (Deferred.dropped d);
  checki "buffer drained by check" 0 (Deferred.buffered d)

let test_deferred_overflow_drops () =
  let d =
    Deferred.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) ~buffer_size:2
      ~drain_batch:1 ()
  in
  Deferred.taint_source d ~pid:1 (r 100 110);
  (* three memory events into a 2-slot buffer: the tainted load (oldest)
     is dropped, so the in-window store is never tainted *)
  List.iter (Deferred.observe d)
    [ load (r 100 101) 1; other 2; store (r 200 203) 3; store (r 210 211) 4 ];
  checki "one drop" 1 (Deferred.dropped d);
  checkb "taint missed (FN, not FP)" false (Deferred.check d ~pid:1 (r 200 203))

let test_deferred_tick () =
  let d =
    Deferred.create ~policy:(Policy.make ~ni:3 ~nt:2 ()) ~buffer_size:64
      ~drain_batch:2 ()
  in
  List.iter (Deferred.observe d)
    [ load (r 0 1) 1; store (r 10 11) 2; store (r 20 21) 3 ];
  checki "buffered 3" 3 (Deferred.buffered d);
  Deferred.tick d;
  checki "drained 2" 1 (Deferred.buffered d);
  Deferred.tick d;
  checki "drained all" 0 (Deferred.buffered d)

(* --- Storage -------------------------------------------------------------- *)

let test_storage_basic () =
  let s = Storage.create ~entries:4 () in
  Storage.insert s ~pid:1 (r 100 110);
  checkb "hit" true (Storage.lookup s ~pid:1 (r 105 120));
  checkb "miss" false (Storage.lookup s ~pid:1 (r 200 210));
  checkb "pid miss" false (Storage.lookup s ~pid:2 (r 100 110));
  checki "occupancy" 1 (Storage.occupancy s);
  Storage.remove s ~pid:1 (r 104 106);
  checkb "left piece" true (Storage.lookup s ~pid:1 (r 100 103));
  checkb "cut gone" false (Storage.lookup s ~pid:1 (r 104 106));
  checkb "right piece" true (Storage.lookup s ~pid:1 (r 107 110));
  checki "split occupancy" 2 (Storage.occupancy s)

let test_storage_lru () =
  let s = Storage.create ~entries:2 ~eviction:Storage.Lru_writeback () in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  (* touch the first so the second is older *)
  ignore (Storage.lookup s ~pid:1 (r 0 0));
  Storage.insert s ~pid:1 (r 40 49);
  let st = Storage.stats s in
  checki "one eviction" 1 st.Storage.evictions;
  (* the evicted range is still found through secondary storage *)
  checkb "secondary hit" true (Storage.lookup s ~pid:1 (r 20 29));
  let st = Storage.stats s in
  checki "secondary hits" 1 st.Storage.secondary_hits

let test_storage_drop () =
  let s = Storage.create ~entries:2 ~eviction:Storage.Drop () in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  Storage.insert s ~pid:1 (r 40 49);
  let st = Storage.stats s in
  checki "dropped" 1 st.Storage.drops;
  checkb "dropped range lost" false (Storage.lookup s ~pid:1 (r 40 49))

let test_storage_granularity () =
  let s = Storage.create ~entries:8 ~granularity:(Some 4) () in
  Storage.insert s ~pid:1 (r 17 18);
  (* 16-byte blocks: [16,31] becomes tainted *)
  checkb "block overtaint" true (Storage.lookup s ~pid:1 (r 30 30));
  checkb "next block clean" false (Storage.lookup s ~pid:1 (r 32 40))

let test_storage_context_switch () =
  let s = Storage.create ~entries:4 () in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:2 (r 20 29);
  Storage.context_switch s;
  checki "flushed" 0 (Storage.occupancy s);
  checkb "still visible via secondary" true (Storage.lookup s ~pid:1 (r 0 9));
  checkb "pid 2 too" true (Storage.lookup s ~pid:2 (r 20 29))

(* Eviction paths under a live metrics registry: capacity pressure under
   Lru_writeback must count evictions and writebacks (and keep evicted
   state reachable through secondary hits + promotion), Drop must count
   drops and lose the range, and the occupancy gauge must track valid
   primary entries. *)
let storage_counter registry name =
  match Pift_obs.Registry.find_counter registry name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not registered" name

let test_storage_lru_eviction_metrics () =
  let registry = Pift_obs.Registry.create () in
  let s =
    Storage.create ~entries:2 ~eviction:Storage.Lru_writeback ~metrics:registry
      ()
  in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  checkb "no eviction while capacity lasts" true
    (storage_counter registry "pift_storage_evictions_total" = 0);
  (* touch the first entry so the second is least recently used *)
  checkb "primary hit" true (Storage.lookup s ~pid:1 (r 0 0));
  Storage.insert s ~pid:1 (r 40 49);
  checki "one eviction" 1
    (storage_counter registry "pift_storage_evictions_total");
  checki "eviction wrote back" 1
    (storage_counter registry "pift_storage_writebacks_total");
  checkb "occupancy gauge full" true
    (Pift_obs.Registry.find_gauge registry "pift_storage_occupancy"
    = Some 2.0);
  (* the evicted range is only in secondary storage now: a lookup is
     a secondary hit and promotes it back, evicting the next LRU *)
  checkb "evicted range still reachable" true
    (Storage.lookup s ~pid:1 (r 20 29));
  checki "secondary hit counted" 1
    (storage_counter registry "pift_storage_secondary_hits_total");
  checki "promotion evicted the next LRU" 2
    (storage_counter registry "pift_storage_evictions_total");
  checki "second writeback" 2
    (storage_counter registry "pift_storage_writebacks_total");
  checki "promotion is an insertion" 4
    (storage_counter registry "pift_storage_insertions_total");
  (* the newly-evicted range went through the same cycle *)
  checkb "second evicted range still reachable" true
    (Storage.lookup s ~pid:1 (r 0 9));
  checki "second secondary hit" 2
    (storage_counter registry "pift_storage_secondary_hits_total");
  checki "drops never fire under Lru_writeback" 0
    (storage_counter registry "pift_storage_drops_total");
  (* counters mirror stats exactly *)
  let st = Storage.stats s in
  checki "stats/evictions agree" st.Storage.evictions
    (storage_counter registry "pift_storage_evictions_total");
  checki "stats/writebacks agree" st.Storage.writebacks
    (storage_counter registry "pift_storage_writebacks_total");
  checki "stats/secondary agree" st.Storage.secondary_hits
    (storage_counter registry "pift_storage_secondary_hits_total");
  checki "stats/lookups agree" st.Storage.lookups
    (storage_counter registry "pift_storage_lookups_total")

let test_storage_drop_metrics () =
  let registry = Pift_obs.Registry.create () in
  let s =
    Storage.create ~entries:2 ~eviction:Storage.Drop ~metrics:registry ()
  in
  Storage.insert s ~pid:1 (r 0 9);
  Storage.insert s ~pid:1 (r 20 29);
  Storage.insert s ~pid:1 (r 40 49);
  checki "one drop" 1 (storage_counter registry "pift_storage_drops_total");
  checki "no evictions under Drop" 0
    (storage_counter registry "pift_storage_evictions_total");
  checki "no writebacks under Drop" 0
    (storage_counter registry "pift_storage_writebacks_total");
  checkb "dropped range is lost" false (Storage.lookup s ~pid:1 (r 40 49));
  checkb "no secondary rescue under Drop" true
    (storage_counter registry "pift_storage_secondary_hits_total" = 0);
  checkb "occupancy gauge stays at capacity" true
    (Pift_obs.Registry.find_gauge registry "pift_storage_occupancy"
    = Some 2.0);
  checkb "resident ranges survive" true
    (Storage.lookup s ~pid:1 (r 0 9) && Storage.lookup s ~pid:1 (r 20 29))

let test_store_backends () =
  List.iter
    (fun backend ->
      let name s = Store.backend_to_string backend ^ ": " ^ s in
      let sets = Store.create ~backend () in
      sets.Store.add ~pid:1 (r 0 9);
      sets.Store.add ~pid:2 (r 20 24);
      checkb (name "overlap") true (sets.Store.overlaps ~pid:1 (r 5 6));
      checki (name "bytes across pids") 15 (sets.Store.tainted_bytes ());
      checki (name "count") 2 (sets.Store.range_count ());
      sets.Store.remove ~pid:1 (r 0 9);
      checki (name "bytes after remove") 5 (sets.Store.tainted_bytes ()))
    Store.all_backends

let test_hw_model () =
  let report =
    Hw_model.estimate ~total_insns:1_000_000 ~loads:100_000 ~stores:50_000
      ~secondary_hits:100 ()
  in
  checki "events" 150_000 report.Hw_model.pift_events;
  checkb "overhead small" true (report.Hw_model.pift_overhead_pct < 1.0);
  checkb "sw dift big" true (report.Hw_model.sw_dift_overhead_pct > 100.0);
  checkb "reduction" true (report.Hw_model.event_reduction > 6.0)

(* Differential property: an unbounded hardware cache answers overlap
   queries exactly like the software range set. *)
let prop_storage_store_agreement =
  QCheck2.Test.make
    ~name:"unbounded range cache agrees with the exact range set"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let exact = Store.create () in
      let cache = Store.of_storage (Storage.create ~entries:4096 ()) in
      let ok = ref true in
      List.iter
        (fun (op, range) ->
          match op with
          | 0 ->
              exact.Store.add ~pid:1 range;
              cache.Store.add ~pid:1 range
          | 1 ->
              exact.Store.remove ~pid:1 range;
              cache.Store.remove ~pid:1 range
          | _ ->
              if
                exact.Store.overlaps ~pid:1 range
                <> cache.Store.overlaps ~pid:1 range
              then ok := false)
        ops;
      (* final per-byte agreement *)
      for x = 0 to 150 do
        if
          exact.Store.overlaps ~pid:1 (Range.byte x)
          <> cache.Store.overlaps ~pid:1 (Range.byte x)
        then ok := false
      done;
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_range_set_model; prop_tracker_reference;
      prop_storage_store_agreement;
    ]

let () =
  Alcotest.run "pift_core"
    [
      ("policy", [ Alcotest.test_case "validation" `Quick test_policy ]);
      ( "range_set",
        [
          Alcotest.test_case "basics" `Quick test_range_set_basic;
          Alcotest.test_case "coalescing" `Quick test_range_set_coalesce;
          Alcotest.test_case "removal" `Quick test_range_set_remove;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "window" `Quick test_tracker_window;
          Alcotest.test_case "NT cap" `Quick test_tracker_nt_cap;
          Alcotest.test_case "window restart" `Quick
            test_tracker_window_restart;
          Alcotest.test_case "untaint switch" `Quick
            test_tracker_untaint_disabled;
          Alcotest.test_case "untaint dip in series" `Quick
            test_tracker_untaint_range_records_dip;
          Alcotest.test_case "per-pid state" `Quick test_tracker_per_pid;
          Alcotest.test_case "10-event stats vs metrics" `Quick
            test_tracker_ten_event_counts;
        ] );
      ("differential", qsuite);
      ( "provenance",
        [
          Alcotest.test_case "labels" `Quick test_provenance_labels;
          Alcotest.test_case "union & untaint" `Quick
            test_provenance_union_and_untaint;
          Alcotest.test_case "NT cap with merged labels" `Quick
            test_provenance_nt_cap_merged_labels;
          Alcotest.test_case "entries sorted" `Quick
            test_provenance_entries_sorted;
          Alcotest.test_case "backends agree" `Quick
            test_provenance_backends_agree;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "equals online" `Quick test_deferred_equals_online;
          Alcotest.test_case "overflow drops" `Quick
            test_deferred_overflow_drops;
          Alcotest.test_case "tick" `Quick test_deferred_tick;
        ] );
      ( "storage",
        [
          Alcotest.test_case "basics" `Quick test_storage_basic;
          Alcotest.test_case "LRU writeback" `Quick test_storage_lru;
          Alcotest.test_case "drop policy" `Quick test_storage_drop;
          Alcotest.test_case "granularity" `Quick test_storage_granularity;
          Alcotest.test_case "context switch" `Quick
            test_storage_context_switch;
          Alcotest.test_case "LRU eviction metrics" `Quick
            test_storage_lru_eviction_metrics;
          Alcotest.test_case "drop metrics" `Quick test_storage_drop_metrics;
        ] );
      ( "store & model",
        [
          Alcotest.test_case "backends" `Quick test_store_backends;
          Alcotest.test_case "hw model" `Quick test_hw_model;
        ] );
    ]
