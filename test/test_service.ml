(* Tests for Pift_service: the engine's determinism claim (multi-tenant
   ingestion at every shard count is byte-identical to isolated replays
   — verdicts, origin sets, and stats), shard-owned ingest (cursors and
   per-shard segment budgets at every idle point, the pid-block guard,
   per-item allocation), tenant eviction releasing all state, streaming
   trace readers, the per-pid provenance index, the merge kept for the
   benchmark harness, and Pool.run_job.  PIFT_TEST_JOBS is not used here: shard counts are the
   parameter under test and are fixed per case. *)

module Range = Pift_util.Range
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Storage = Pift_core.Storage
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Pool = Pift_par.Pool
module Droidbench = Pift_workloads.Droidbench
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io
module Event = Pift_trace.Event
module Insn = Pift_arm.Insn
module Engine = Pift_service.Engine
module Ingest = Pift_service.Ingest
module Admin = Pift_service.Admin

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let app name =
  match Droidbench.find name with
  | Some a -> a
  | None -> Alcotest.failf "unknown app %s" name

(* Recordings shared across cases (recording is the slow part). *)
let recordings =
  lazy
    (List.map
       (fun n -> Recorded.record (app n))
       [ "StringConcat1"; "DirectLeak1"; "LogLeak1"; "Obfuscation1" ])

(* --- Pool.run_job --------------------------------------------------------- *)

let test_run_job_every_worker_once () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let hits = Array.make jobs 0 in
          Pool.run_job p (fun ~worker ->
              hits.(worker) <- hits.(worker) + 1);
          Array.iteri
            (fun w h -> checki (Printf.sprintf "jobs=%d slot %d" jobs w) 1 h)
            hits;
          (* the pool is reusable for a second job *)
          Pool.run_job p (fun ~worker ->
              hits.(worker) <- hits.(worker) + 10);
          Array.iteri
            (fun w h -> checki (Printf.sprintf "second job slot %d" w) 11 h)
            hits))
    [ 1; 2; 4 ]

exception Job_boom

let test_run_job_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun p ->
      checkb "raises" true
        (try
           Pool.run_job p (fun ~worker -> if worker = 1 then raise Job_boom);
           false
         with Job_boom -> true);
      (* the pool survives a failed job *)
      let ok = ref false in
      Pool.run_job p (fun ~worker -> if worker = 0 then ok := true);
      checkb "pool alive after failure" true !ok)

(* --- differential: interleaved engine = isolated replays ----------------- *)

let norm_verdicts (rp : Recorded.replay) ~with_origins =
  if with_origins then
    List.map
      (fun (ov : Recorded.origin_verdict) ->
        (ov.Recorded.ov_kind, ov.Recorded.ov_flagged, ov.Recorded.ov_origins))
      rp.Recorded.origins
  else
    List.map
      (fun (v : Recorded.verdict) -> (v.Recorded.kind, v.Recorded.flagged, []))
      rp.Recorded.verdicts

let engine_verdicts (ts : Admin.tenant_snapshot) ~with_origins =
  List.map
    (fun (v : Admin.verdict) ->
      ( v.Admin.v_kind,
        v.Admin.v_flagged,
        if with_origins then v.Admin.v_origins else [] ))
    ts.Admin.ts_verdicts

let stats_equal (a : Tracker.stats) (b : Tracker.stats) =
  a.Tracker.taint_ops = b.Tracker.taint_ops
  && a.Tracker.untaint_ops = b.Tracker.untaint_ops
  && a.Tracker.lookups = b.Tracker.lookups
  && a.Tracker.tainted_loads = b.Tracker.tainted_loads
  && a.Tracker.max_tainted_bytes = b.Tracker.max_tainted_bytes
  && a.Tracker.max_ranges = b.Tracker.max_ranges
  && a.Tracker.events = b.Tracker.events

let run_differential ~shards ~with_origins =
  let recs = Lazy.force recordings in
  let policy = Policy.default in
  let isolated =
    List.map (fun r -> Recorded.replay ~policy ~with_origins r) recs
  in
  Engine.with_engine ~shards ~policy ~with_origins (fun eng ->
      let sources =
        List.mapi (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r) recs
      in
      Ingest.run eng sources;
      List.iteri
        (fun i (r, rp) ->
          let pid = Ingest.tenant_pid i in
          match Admin.snapshot_tenant eng ~pid with
          | None -> Alcotest.failf "tenant %d missing" pid
          | Some ts ->
              let label which =
                Printf.sprintf "%s shards=%d tenant=%s" which shards
                  r.Recorded.name
              in
              checks (label "name") r.Recorded.name ts.Admin.ts_name;
              checkb (label "verdicts") true
                (engine_verdicts ts ~with_origins
                = norm_verdicts rp ~with_origins);
              checkb (label "stats") true
                (stats_equal ts.Admin.ts_stats rp.Recorded.stats))
        (List.combine recs isolated);
      (* all shards between 0 and shards-1 got the round-robin tenants *)
      let st = Admin.stats eng in
      checki
        (Printf.sprintf "tenant total shards=%d" shards)
        (List.length recs) st.Admin.st_tenants;
      checki
        (Printf.sprintf "dropped shards=%d" shards)
        0 st.Admin.st_dropped)

let test_differential_shards_1 () = run_differential ~shards:1 ~with_origins:true
let test_differential_shards_2 () = run_differential ~shards:2 ~with_origins:true
let test_differential_shards_4 () = run_differential ~shards:4 ~with_origins:true

let test_differential_no_origins () =
  run_differential ~shards:2 ~with_origins:false

(* There are no queues: the batch, drop and queue-depth stats stay 0
   and every streamed item is processed. *)
let test_inline_shard_never_drops () =
  let recs = Lazy.force recordings in
  Engine.with_engine ~shards:1 ~policy:Policy.default (fun eng ->
      let sources =
        List.mapi (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r) recs
      in
      Ingest.run eng sources;
      let st = Admin.stats eng in
      let total_items =
        List.fold_left
          (fun acc (r : Recorded.t) ->
            acc + Pift_trace.Trace.length r.Recorded.trace
            + Array.length r.Recorded.markers)
          0 recs
      in
      checki "nothing dropped" 0 st.Admin.st_dropped;
      checki "every item processed" total_items st.Admin.st_items;
      checki "no batches" 0 st.Admin.st_batches;
      checki "no queue depth" 0
        (List.hd st.Admin.st_shards).Admin.ss_max_queue_depth)

(* --- merge: heap = all-heads scan ----------------------------------------- *)

(* The all-heads scan [Ingest.merge] used before its heap, kept as the
   oracle: every pull refills each empty live head in index order, then
   scans all heads for the smallest (seq, index). *)
let scan_merge sources : Engine.stream =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let heads = Array.make n None in
  let live = Array.make n (n > 0) in
  let item_seq = function
    | Recorded.Item_event e -> e.Event.seq
    | Recorded.Item_marker (seq, _) -> seq
  in
  let fill i =
    if live.(i) && heads.(i) = None then begin
      match srcs.(i).Ingest.src_next () with
      | Some it -> heads.(i) <- Some it
      | None -> live.(i) <- false
    end
  in
  fun () ->
    for i = 0 to n - 1 do
      fill i
    done;
    let best = ref (-1) and best_seq = ref max_int in
    for i = 0 to n - 1 do
      match heads.(i) with
      | None -> ()
      | Some it ->
          let seq = item_seq it in
          if !best < 0 || seq < !best_seq then begin
            best := i;
            best_seq := seq
          end
    done;
    if !best < 0 then None
    else begin
      let i = !best in
      let it = Option.get heads.(i) in
      heads.(i) <- None;
      let s = srcs.(i) in
      s.Ingest.src_emitted <- s.Ingest.src_emitted + 1;
      Some (Ingest.to_engine_item s it)
    end

(* One generated case: per source, its items as (seq, shape) with shape
   0 = event, 1 = source marker, 2 = sink marker; optionally one source
   whose [k+1]-th read raises (once — the read after it succeeds). *)
type merge_case = {
  mc_sources : (int * int) list list;
  mc_fail : (int * int) option;  (* (source, k) *)
}

exception Read_failed of int

let merge_item (seq, shape) =
  match shape with
  | 0 ->
      Recorded.Item_event
        { Event.seq; k = seq; pid = 7; insn = Insn.Nop; access = Event.Other }
  | 1 ->
      Recorded.Item_marker
        (seq, Recorded.Source { kind = "src"; range = Range.make seq (seq + 3) })
  | _ ->
      Recorded.Item_marker
        (seq, Recorded.Sink { kind = "snk"; ranges = [ Range.make 0 seq ] })

(* Fresh sources for one case, plus each source's read counter. *)
let merge_sources c =
  List.mapi
    (fun i items ->
      let rest = ref (List.map merge_item items) and reads = ref 0 in
      let next () =
        incr reads;
        if c.mc_fail = Some (i, !reads - 1) then raise (Read_failed i);
        match !rest with
        | [] -> None
        | x :: tl ->
            rest := tl;
            Some x
      in
      ( {
          Ingest.src_name = Printf.sprintf "s%d" i;
          src_path = None;
          src_pid = Ingest.tenant_pid i;
          src_orig_pid = 7;
          src_next = next;
          src_pull = Ingest.pull_of_next next;
          src_close = ignore;
          src_emitted = 0;
        },
        reads ))
    c.mc_sources

let gen_merge_case rng =
  let module Rng = Pift_util.Rng in
  let nsrc = Rng.int rng 6 in
  let sources =
    List.init nsrc (fun _ ->
        let len = if Rng.int rng 4 = 0 then 0 else Rng.int_in rng 1 12 in
        (* seqs from a narrow band so ties across (and within) sources
           are common *)
        List.init len (fun _ -> (Rng.int rng 16, Rng.int rng 3)))
  in
  let fail =
    if nsrc = 0 || Rng.int rng 3 > 0 then None
    else begin
      let s = Rng.int rng nsrc in
      Some (s, Rng.int_in rng 0 (List.length (List.nth sources s)))
    end
  in
  { mc_sources = sources; mc_fail = fail }

let merge_case_to_string c =
  Printf.sprintf "fail=%s sources=[%s]"
    (match c.mc_fail with
    | None -> "none"
    | Some (s, k) -> Printf.sprintf "source %d read %d" s (k + 1))
    (String.concat "; "
       (List.map
          (fun items ->
            String.concat ","
              (List.map (fun (seq, sh) -> Printf.sprintf "%d/%d" seq sh) items))
          c.mc_sources))

(* Drive the heap merge and the scan oracle in lockstep: every pull must
   give the same item (or the same read failure), every source the same
   cursor and the same number of reads; end of stream must stick. *)
let merge_agrees c =
  let heap_srcs = merge_sources c and scan_srcs = merge_sources c in
  let heap = Ingest.merge (List.map fst heap_srcs)
  and scan = scan_merge (List.map fst scan_srcs) in
  let pull m = match m () with v -> Ok v | exception Read_failed i -> Error i in
  let state srcs =
    List.map (fun (s, reads) -> (Ingest.cursor s, !reads)) srcs
  in
  let total = List.fold_left (fun a l -> a + List.length l) 0 c.mc_sources in
  let rec go k ended =
    if k > total + 3 then Error "stream did not end"
    else begin
      let a = pull heap and b = pull scan in
      if a <> b then Error (Printf.sprintf "pull %d: items differ" k)
      else if state heap_srcs <> state scan_srcs then
        Error (Printf.sprintf "pull %d: cursors or reads differ" k)
      else
        match a with
        | Ok None -> if ended then Ok () else go (k + 1) true
        | _ when ended -> Error (Printf.sprintf "pull %d: output after end" k)
        | _ -> go (k + 1) false
    end
  in
  go 1 false

let test_merge_heap_equals_scan () =
  Prop.check_gen ~name:"heap merge = scan merge" ~count:500
    ~gen:gen_merge_case
    ~shrink:(fun _ -> [])
    ~to_string:merge_case_to_string merge_agrees

(* The fixed edge cases, independent of the generator's draw. *)
let test_merge_edge_cases () =
  List.iter
    (fun c ->
      match merge_agrees c with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" (merge_case_to_string c) m)
    [
      { mc_sources = []; mc_fail = None };
      { mc_sources = [ [] ]; mc_fail = None };
      { mc_sources = [ [ (3, 0); (1, 1); (2, 2) ] ]; mc_fail = None };
      { mc_sources = [ []; [ (0, 0) ]; [] ]; mc_fail = None };
      (* all-tie heads: index order decides, marker or not *)
      { mc_sources = [ [ (5, 1); (5, 0) ]; [ (5, 2) ]; [ (5, 0); (5, 0) ] ];
        mc_fail = None };
      (* a failing first read, a failing refill, a failing end-of-stream read *)
      { mc_sources = [ [ (1, 0) ]; [ (0, 0) ] ]; mc_fail = Some (1, 0) };
      { mc_sources = [ [ (1, 0); (2, 0) ]; [ (0, 0); (4, 0) ] ];
        mc_fail = Some (1, 1) };
      { mc_sources = [ [ (1, 0) ]; [ (0, 0) ] ]; mc_fail = Some (0, 1) };
    ]

(* --- tenant lifecycle ----------------------------------------------------- *)

let shard_bytes eng = (Admin.stats eng).Admin.st_tainted_bytes

(* Evict one of two tenants mid-stream (in-band I_evict): its store,
   provenance and window state must be released, the shard occupancy
   must fall back to the surviving tenant's baseline, and a re-ingested
   tenant under the same pid must start clean. *)
let test_evict_mid_stream () =
  let recs = Lazy.force recordings in
  let r0 = List.nth recs 0 and r1 = List.nth recs 1 in
  let policy = Policy.default in
  Engine.with_engine ~shards:2 ~policy ~with_origins:true (fun eng ->
      let pid0 = Ingest.tenant_pid 0 and pid1 = Ingest.tenant_pid 1 in
      let s0 = Ingest.of_recorded ~pid:pid0 r0 in
      let s1 = Ingest.of_recorded ~pid:pid1 r1 in
      (* interleave both tenants fully, then evict tenant 0 in-band *)
      let merged = Ingest.merge [ s0; s1 ] in
      let evicted = ref false in
      let stream () =
        match merged () with
        | Some _ as it -> it
        | None ->
            if !evicted then None
            else begin
              evicted := true;
              Some (Engine.I_evict { pid = pid0 })
            end
      in
      Engine.register_tenant eng ~pid:pid0 ~name:r0.Recorded.name ();
      Engine.register_tenant eng ~pid:pid1 ~name:r1.Recorded.name ();
      Engine.run eng stream;
      checkb "tenant 0 gone" true (Admin.snapshot_tenant eng ~pid:pid0 = None);
      checkb "tenant 1 resident" true
        (Admin.snapshot_tenant eng ~pid:pid1 <> None);
      checki "one eviction" 1 (Admin.stats eng).Admin.st_evictions;
      (* shard occupancy = surviving tenant's live bytes, exactly *)
      let ts1 = Option.get (Admin.snapshot_tenant eng ~pid:pid1) in
      checki "gauge at survivor baseline" ts1.Admin.ts_tainted_bytes
        (shard_bytes eng);
      (* the pid starts clean: re-ingesting r0 under pid0 must match a
         fresh isolated replay, untainted by the evicted incarnation *)
      Ingest.run eng [ Ingest.of_recorded ~pid:pid0 r0 ];
      let rp0 = Recorded.replay ~policy ~with_origins:true r0 in
      let ts0 = Option.get (Admin.snapshot_tenant eng ~pid:pid0) in
      checkb "re-registered pid replays clean" true
        (engine_verdicts ts0 ~with_origins:true
        = norm_verdicts rp0 ~with_origins:true);
      checkb "stats clean too" true
        (stats_equal ts0.Admin.ts_stats rp0.Recorded.stats))

let test_admin_out_of_band () =
  Engine.with_engine ~shards:2 ~with_origins:true (fun eng ->
      let pid = Ingest.tenant_pid 3 in
      Admin.register_tenant eng ~pid ~name:"manual" ();
      Admin.register_source eng ~pid ~kind:"IMEI"
        (Range.of_len 100 16);
      let v = Admin.query_sink eng ~pid [ Range.of_len 104 4 ] in
      checkb "sink flagged" true v.Admin.v_flagged;
      checkb "origins" true (v.Admin.v_origins = [ "IMEI" ]);
      (* query_sink is pure: no verdict was logged *)
      let ts = Option.get (Admin.snapshot_tenant eng ~pid) in
      checks "name" "manual" ts.Admin.ts_name;
      checki "no logged verdicts" 0 (List.length ts.Admin.ts_verdicts);
      checki "live bytes" 16 ts.Admin.ts_tainted_bytes;
      Admin.untaint_range eng ~pid (Range.of_len 100 16);
      let v2 = Admin.query_sink eng ~pid [ Range.of_len 104 4 ] in
      checkb "clean after untaint" false v2.Admin.v_flagged;
      checkb "evict reports residency" true (Admin.evict_tenant eng ~pid);
      checkb "second evict is false" false (Admin.evict_tenant eng ~pid))

(* --- release_pid through the stack ---------------------------------------- *)

let test_store_release_pid () =
  let s = Store.create () in
  s.Store.add ~pid:1 (Range.of_len 0 10);
  s.Store.add ~pid:2 (Range.of_len 50 6);
  checki "bytes before" 16 (s.Store.tainted_bytes ());
  s.Store.release_pid ~pid:1;
  checki "bytes after" 6 (s.Store.tainted_bytes ());
  checki "ranges after" 1 (s.Store.range_count ());
  checkb "pid 1 empty" false (s.Store.overlaps ~pid:1 (Range.of_len 0 10));
  checkb "pid 2 intact" true (s.Store.overlaps ~pid:2 (Range.of_len 52 1));
  (* releasing an unknown pid is a no-op *)
  s.Store.release_pid ~pid:99;
  checki "no-op release" 6 (s.Store.tainted_bytes ())

let test_storage_release_pid () =
  let st = Storage.create ~entries:8 () in
  Storage.insert st ~pid:1 (Range.of_len 0 4);
  Storage.insert st ~pid:2 (Range.of_len 100 4);
  let occ_before = Storage.occupancy st in
  Storage.release_pid st ~pid:1;
  checki "occupancy drops" (occ_before - 1) (Storage.occupancy st);
  checkb "pid 1 gone" false (Storage.lookup st ~pid:1 (Range.of_len 0 4));
  checkb "pid 2 intact" true
    (Storage.lookup st ~pid:2 (Range.of_len 100 4))

let test_tracker_release_pid () =
  let prov = Provenance.create () in
  let tracker = Tracker.create ~prov () in
  Tracker.taint_source ~kind:"IMEI" tracker ~pid:7 (Range.of_len 0 8);
  Tracker.taint_source ~kind:"GPS" tracker ~pid:8 (Range.of_len 64 4);
  checki "live bytes" 12 (Tracker.current_tainted_bytes tracker);
  Tracker.release_pid tracker ~pid:7;
  checki "bytes after release" 4 (Tracker.current_tainted_bytes tracker);
  checki "ranges after release" 1 (Tracker.current_ranges tracker);
  checkb "origins gone" true (Tracker.origins_of tracker ~pid:7 (Range.of_len 0 8) = []);
  checkb "other pid keeps origins" true
    (Tracker.origins_of tracker ~pid:8 (Range.of_len 64 4) = [ "GPS" ]);
  (* peaks are high-water marks and survive the release *)
  checki "peak bytes" 12 (Tracker.stats tracker).Tracker.max_tainted_bytes

(* --- provenance per-pid index (satellite: no cross-pid scans) ------------- *)

let test_provenance_scans_stay_per_pid () =
  let p = Provenance.create () in
  (* 1000 cold pids, one label each *)
  for pid = 1 to 1000 do
    Provenance.taint_source p ~pid ~label:(Printf.sprintf "src%d" (pid mod 7))
      (Range.of_len (pid * 64) 16)
  done;
  let before = Provenance.probes p in
  (* scan-path ops on ONE pid must probe only that pid's label sets
     (1 label here), not all 1000 pids' *)
  Provenance.untaint_range p ~pid:500 (Range.of_len (500 * 64) 16);
  let after_untaint = Provenance.probes p in
  checkb
    (Printf.sprintf "untaint probes once, got %d" (after_untaint - before))
    true
    (after_untaint - before <= 1);
  ignore (Provenance.labels_of p ~pid:501 (Range.of_len (501 * 64) 4));
  let after_hit = Provenance.probes p in
  checkb
    (Printf.sprintf "hit_labels probes once, got %d" (after_hit - after_untaint))
    true
    (after_hit - after_untaint <= 1)

let test_provenance_release_pid () =
  let p = Provenance.create () in
  Provenance.taint_source p ~pid:1 ~label:"a" (Range.of_len 0 8);
  Provenance.taint_source p ~pid:2 ~label:"b" (Range.of_len 0 8);
  Provenance.release_pid p ~pid:1;
  checkb "pid 1 labels gone" true
    (Provenance.labels_of p ~pid:1 (Range.of_len 0 8) = []);
  checkb "pid 2 intact" true
    (Provenance.labels_of p ~pid:2 (Range.of_len 0 8) = [ "b" ]);
  checki "pid 1 bytes" 0 (Provenance.tainted_bytes p ~label:"a")

(* --- streaming trace readers (satellite) ----------------------------------- *)

let with_tmp ~suffix f =
  let path = Filename.temp_file "pift_service_test" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let drain_reader path =
  Trace_io.with_reader path (fun r ->
      let items = ref [] in
      let rec go () =
        match Trace_io.read_item r with
        | Some it ->
            items := it :: !items;
            go ()
        | None -> ()
      in
      go ();
      (Trace_io.reader_header r, List.rev !items))

let items_of_recording r =
  let next = Recorded.items r in
  let acc = ref [] in
  let rec go () =
    match next () with
    | Some it ->
        acc := it :: !acc;
        go ()
    | None -> ()
  in
  go ();
  List.rev !acc

let test_reader_matches_load () =
  let r = List.hd (Lazy.force recordings) in
  List.iter
    (fun format ->
      with_tmp ~suffix:".pift" (fun path ->
          Trace_io.save ~format r path;
          let h, streamed = drain_reader path in
          checks "header name" r.Recorded.name h.Trace_io.h_name;
          checki "header pid" r.Recorded.pid h.Trace_io.h_pid;
          let loaded = Trace_io.load path in
          checkb
            (Printf.sprintf "streamed = loaded items (%s)"
               (Trace_io.format_to_string format))
            true
            (streamed = items_of_recording loaded)))
    [ Trace_io.Text; Trace_io.Binary ]

let test_truncated_binary_positioned_error () =
  let r = List.hd (Lazy.force recordings) in
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format:Trace_io.Binary r path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      with_tmp ~suffix:".pift" (fun cut_path ->
          (* cut mid-stream: deep enough to leave the header and many
             records intact, shallow enough to chop a record *)
          let cut = String.length full * 2 / 3 in
          Out_channel.with_open_bin cut_path (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          Trace_io.with_reader cut_path (fun rd ->
              let n = ref 0 in
              let msg =
                try
                  let rec go () =
                    match Trace_io.read_item rd with
                    | Some _ ->
                        incr n;
                        go ()
                    | None -> None
                  in
                  go ()
                with Failure m -> Some m
              in
              match msg with
              | None -> Alcotest.fail "truncated file read to EOF cleanly"
              | Some m ->
                  checkb "items delivered before the cut" true (!n > 0);
                  (* the error names the failing record, one past the
                     items already delivered *)
                  let expected =
                    Printf.sprintf "Trace_io: record %d" (!n + 1)
                  in
                  checkb
                    (Printf.sprintf "positioned error %S mentions %S" m
                       expected)
                    true
                    (String.length m >= String.length expected
                    && String.sub m 0 (String.length expected) = expected))))

(* Decoding a PIFTBIN1 record allocates the item and nothing else: the
   varint loops are top-level functions and no failure continuation is
   built per record.  This recording measures 11.2 words per item
   (record, access, range, item and option boxes, with markers and
   non-memory events averaged in); the bound is that rounded up, so
   even one more closure per record fails it. *)
let test_binary_decode_allocation () =
  let r = List.hd (Lazy.force recordings) in
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format:Trace_io.Binary r path;
      Trace_io.with_reader path (fun rd ->
          let n = ref 0 in
          let w0 = Gc.minor_words () in
          let rec go () =
            match Trace_io.read_item rd with
            | Some _ ->
                incr n;
                go ()
            | None -> ()
          in
          go ();
          let per_item = (Gc.minor_words () -. w0) /. float_of_int !n in
          checkb "decoded a real trace" true (!n > 100);
          checkb
            (Printf.sprintf "%d items, %.1f minor words per decoded item <= 12"
               !n per_item)
            true (per_item <= 12.)))

let trace_error path =
  match Trace_io.load path with
  | _ -> Alcotest.fail "corrupt trace loaded cleanly"
  | exception Failure msg -> msg

let ingest_error path =
  match
    Engine.with_engine ~shards:1 (fun eng ->
        Ingest.run eng [ Ingest.of_file ~pid:(Ingest.tenant_pid 0) path ])
  with
  | () -> Alcotest.fail "corrupt trace ingested cleanly"
  | exception Failure msg -> msg

(* Corrupt PIFTBIN1 files, one per framing and range check: each fails
   with its exact positioned message, the same through both users of
   the one decoder — [Trace_io.load] and a one-shard [Ingest.run].  A
   file whose magic is not PIFTBIN1 is autodetected as text, so a bad
   magic is the text parser's error. *)
let test_corrupt_binary_table () =
  let header = "PIFTBIN1\001t\001\000" in
  let record fields =
    let b = Buffer.create 16 in
    List.iter (Pift_util.Wire.add_varint b) fields;
    let r = Buffer.create 16 in
    Pift_util.Wire.add_varint r (Buffer.length b);
    Buffer.add_buffer r b;
    Buffer.contents r
  in
  let other = record [ 2; 2; 0; 1 ] in
  List.iter
    (fun (what, bytes, expected) ->
      with_tmp ~suffix:".pift" (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc bytes);
          checks what expected (trace_error path);
          checks (what ^ ", ingest") expected (ingest_error path)))
    [
      ("bad magic", "PIFTBIN2" ^ other, "Trace_io: line 1: bad magic");
      ( "truncated header",
        "PIFTBIN1\005ab",
        "Trace_io: record 0: truncated header" );
      ( "empty record",
        header ^ other ^ "\000",
        "Trace_io: record 2: empty record" );
      ( "implausible record length",
        header ^ other ^ "\x81\x80\x80\x08",
        "Trace_io: record 2: implausible record length" );
      ( "unknown tag",
        header ^ record [ 9 ],
        "Trace_io: record 1: unknown record tag 9" );
      ( "varint overflow",
        header ^ "\011\000" ^ String.make 10 '\xff',
        "Trace_io: record 1: varint overflow" );
      ( "implausible sink range count",
        header ^ "\005\004\000\001k\100",
        "Trace_io: record 1: implausible range count" );
      ( "trailing bytes in record",
        header ^ record [ 2; 2; 0; 1; 0 ],
        "Trace_io: record 1: trailing bytes in record" );
      (* load records: tag 0, dseq, dk, pid, dlo, len *)
      ( "zero-length load",
        header ^ other ^ record [ 0; 2; 2; 1; 0; 0 ],
        "Trace_io: record 2: Range.of_len: non-positive length" );
      ( "load below address 0",
        header ^ other ^ record [ 0; 2; 2; 1; Pift_util.Wire.zigzag (-5); 4 ],
        "Trace_io: record 2: Range.make: negative address" );
      ( "load length overflows hi",
        header ^ other
        ^ record
            [ 0; 2; 2; 1; Pift_util.Wire.zigzag (1 lsl 61); (1 lsl 61) + 1 ],
        "Trace_io: record 2: Range.make: hi < lo" );
    ]

(* An event whose seq is below the previous event's is a positioned
   decode error in both formats; before, a backwards [O] event decoded
   silently and a backwards memory event failed inside the tracker with
   no position.  A marker may sit below the event before it: the
   writers emit it after the event that reaches its seq (seq 3 here,
   after event 5). *)
let test_backwards_seq format expected () =
  let trace = Pift_trace.Trace.create () in
  List.iter
    (fun seq ->
      Pift_trace.Trace.add trace
        {
          Event.seq;
          k = seq;
          pid = 1;
          insn = Insn.Nop;
          access = Event.Load (Range.of_len (4 * seq) 4);
        })
    [ 1; 2; 5; 6; 4 ];
  let r =
    {
      Recorded.name = "backwards";
      trace;
      markers =
        [| (3, Recorded.Source { kind = "src"; range = Range.of_len 0 4 }) |];
      pid = 1;
      bytecodes = 0;
    }
  in
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format r path;
      checks "positioned error" expected (trace_error path))

(* --- shard-owned ingest ----------------------------------------------------- *)

(* A copy of [r] in which every third event runs in a forked child
   (recorded pid + 1): the child must stay a distinct process inside its
   tenant, exactly as in the isolated replay. *)
let forked (r : Recorded.t) =
  let trace = Pift_trace.Trace.create () in
  Pift_trace.Trace.iter
    (fun (e : Event.t) ->
      Pift_trace.Trace.add trace
        (if e.Event.k mod 3 = 0 then { e with Event.pid = r.Recorded.pid + 1 }
         else e))
    r.Recorded.trace;
  { r with Recorded.name = r.Recorded.name ^ "-forked"; trace }

let empty_recording =
  {
    Recorded.name = "Empty";
    trace = Pift_trace.Trace.create ();
    markers = [||];
    pid = 4242;
    bytecodes = 0;
  }

(* The recordings a generated run draws from, each saved once in both
   trace formats. *)
let ingest_fixtures =
  lazy
    (let recs =
       Lazy.force recordings
       @ [ empty_recording; forked (List.hd (Lazy.force recordings)) ]
     in
     List.map
       (fun r ->
         let save format =
           let path = Filename.temp_file "pift_service_ingest" ".pift" in
           at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
           Trace_io.save ~format r path;
           path
         in
         (r, save Trace_io.Binary, save Trace_io.Text))
       recs)

type ingest_case = {
  ic_shards : int;
  ic_segment : int option;
  ic_sources : (int * int) list;  (* (fixture, 0 memory | 1 binary | 2 text) *)
}

let gen_ingest_case rng =
  let module Rng = Pift_util.Rng in
  let nfix = List.length (Lazy.force ingest_fixtures) in
  {
    ic_shards = List.nth [ 1; 2; 4 ] (Rng.int rng 3);
    ic_segment =
      (if Rng.int rng 2 = 0 then None else Some (Rng.int_in rng 1 400));
    ic_sources =
      List.init (Rng.int_in rng 1 7) (fun _ ->
          (Rng.int rng nfix, Rng.int rng 3));
  }

let ingest_case_to_string c =
  Printf.sprintf "shards=%d segment=%s sources=[%s]" c.ic_shards
    (match c.ic_segment with None -> "none" | Some n -> string_of_int n)
    (String.concat "; "
       (List.map
          (fun (f, how) ->
            Printf.sprintf "%d/%s" f
              (match how with 0 -> "memory" | 1 -> "binary" | _ -> "text"))
          c.ic_sources))

(* Events and sink checks among the first [n] items of [r]. *)
let prefix_counts r n =
  let next = Recorded.items r in
  let rec go k events sinks =
    if k = n then (events, sinks)
    else
      match next () with
      | None -> (events, sinks)
      | Some (Recorded.Item_event _) -> go (k + 1) (events + 1) sinks
      | Some (Recorded.Item_marker (_, Recorded.Sink _)) ->
          go (k + 1) events (sinks + 1)
      | Some (Recorded.Item_marker (_, Recorded.Source _)) ->
          go (k + 1) events sinks
  in
  go 0 0 0

(* One generated run: every tenant must end equal to its isolated
   replay, and at every idle point each cursor must name exactly what
   its tenant has processed while no shard overran its segment budget. *)
let ingest_agrees c =
  let fixtures = Array.of_list (Lazy.force ingest_fixtures) in
  let picked =
    List.mapi
      (fun i (f, how) ->
        let r, bin, text = fixtures.(f) in
        let pid = Ingest.tenant_pid i in
        let src =
          match how with
          | 0 -> Ingest.of_recorded ~pid r
          | 1 -> Ingest.of_file ~pid bin
          | _ -> Ingest.of_file ~pid text
        in
        (r, src))
      c.ic_sources
  in
  let sources = List.map snd picked in
  let fail = ref None in
  let check what ok = if (not ok) && !fail = None then fail := Some what in
  Engine.with_engine ~shards:c.ic_shards ~with_origins:true (fun eng ->
      let last_items = Array.make c.ic_shards 0 in
      let on_idle () =
        let st = Admin.stats eng in
        List.iter
          (fun (ss : Admin.shard_stats) ->
            let i = ss.Admin.ss_shard in
            (match c.ic_segment with
            | Some n ->
                check
                  (Printf.sprintf "shard %d overran its budget" i)
                  (ss.Admin.ss_items - last_items.(i) <= n)
            | None -> ());
            last_items.(i) <- ss.Admin.ss_items)
          st.Admin.st_shards;
        List.iter
          (fun (r, s) ->
            let ts =
              Option.get (Admin.snapshot_tenant eng ~pid:s.Ingest.src_pid)
            in
            let events, sinks = prefix_counts r (Ingest.cursor s) in
            check
              (Printf.sprintf "cursor of %s at idle" s.Ingest.src_name)
              (ts.Admin.ts_stats.Tracker.events = events
              && List.length ts.Admin.ts_verdicts = sinks))
          picked;
        check "items = sum of cursors"
          (st.Admin.st_items
          = List.fold_left (fun a s -> a + Ingest.cursor s) 0 sources)
      in
      Ingest.run ?segment:c.ic_segment ~on_idle eng sources;
      List.iter
        (fun (r, s) ->
          let rp = Recorded.replay ~policy:Policy.default ~with_origins:true r in
          let ts =
            Option.get (Admin.snapshot_tenant eng ~pid:s.Ingest.src_pid)
          in
          check
            (Printf.sprintf "%s differs from its isolated replay"
               s.Ingest.src_name)
            (engine_verdicts ts ~with_origins:true
             = norm_verdicts rp ~with_origins:true
            && stats_equal ts.Admin.ts_stats rp.Recorded.stats))
        picked;
      let st = Admin.stats eng in
      check "no batches, drops or queue depth"
        (st.Admin.st_batches = 0 && st.Admin.st_dropped = 0
        && List.for_all
             (fun (ss : Admin.shard_stats) -> ss.Admin.ss_max_queue_depth = 0)
             st.Admin.st_shards));
  match !fail with None -> Ok () | Some m -> Error m

let test_ingest_equals_isolated () =
  Prop.check_gen ~name:"shard-owned ingest = isolated replay" ~count:40
    ~gen:gen_ingest_case
    ~shrink:(fun _ -> [])
    ~to_string:ingest_case_to_string ingest_agrees

(* An event whose remapped pid leaves its tenant's block fails the run
   with one error naming the source and the item, on whichever shard
   owns the source. *)
let test_pid_outside_block () =
  let r = List.hd (Lazy.force recordings) in
  let bad = 5 in
  let trace = Pift_trace.Trace.create () in
  let k = ref 0 in
  Pift_trace.Trace.iter
    (fun (e : Event.t) ->
      incr k;
      Pift_trace.Trace.add trace
        (if !k = bad then { e with Event.pid = r.Recorded.pid + (1 lsl 20) }
         else e))
    r.Recorded.trace;
  let stray = { r with Recorded.name = "Stray"; trace } in
  let item =
    (* the 1-based item number of the bad event: markers may precede it *)
    let next = Recorded.items stray in
    let rec go n events =
      match next () with
      | Some (Recorded.Item_event _) when events + 1 = bad -> n
      | Some (Recorded.Item_event _) -> go (n + 1) (events + 1)
      | Some _ -> go (n + 1) events
      | None -> Alcotest.fail "short recording"
    in
    go 1 0
  in
  List.iter
    (fun shards ->
      Engine.with_engine ~shards (fun eng ->
          let sources =
            [
              Ingest.of_recorded ~pid:(Ingest.tenant_pid 0) r;
              Ingest.of_recorded ~pid:(Ingest.tenant_pid 1) stray;
            ]
          in
          match Ingest.run eng sources with
          | () -> Alcotest.failf "shards=%d: stray pid accepted" shards
          | exception Failure m ->
              checks
                (Printf.sprintf "shards=%d message" shards)
                (Printf.sprintf
                   "Ingest: source Stray item %d: pid %d is outside the \
                    tenant's pid block"
                   item
                   (Ingest.tenant_pid 1 + (1 lsl 20)))
                m))
    [ 1; 2 ]

(* One-shard [Ingest.run] over a binary file carries every event from
   the decoder into the tracker as plain ints: no item, event, access
   block, option or remapped copy per event.  What is left is the range
   each tracker store call takes, the markers and the run's set-up of
   the tenant: 1.47 minor words per item on this 553-item recording.
   The bound is that rounded up; building any one of those objects per
   event again (2 words or more each) fails it.  The item path this
   replaced allocated about 20 words per item. *)
let test_ingest_allocation () =
  let r = List.hd (Lazy.force recordings) in
  with_tmp ~suffix:".pift" (fun path ->
      Trace_io.save ~format:Trace_io.Binary r path;
      let ingest () =
        Engine.with_engine ~shards:1 (fun eng ->
            let src = Ingest.of_file ~pid:(Ingest.tenant_pid 0) path in
            let w0 = Gc.minor_words () in
            Ingest.run eng [ src ];
            (Gc.minor_words () -. w0) /. float_of_int (Ingest.cursor src))
      in
      ignore (ingest ());
      let i = ingest () in
      checkb
        (Printf.sprintf "ingest %.2f minor words per item <= 2" i)
        true (i <= 2.))

let () =
  Alcotest.run "pift service"
    [
      ( "pool run_job",
        [
          Alcotest.test_case "every worker once" `Quick
            test_run_job_every_worker_once;
          Alcotest.test_case "exception propagates" `Quick
            test_run_job_exception_propagates;
        ] );
      ( "engine determinism",
        [
          Alcotest.test_case "interleaved = isolated, 1 shard" `Quick
            test_differential_shards_1;
          Alcotest.test_case "interleaved = isolated, 2 shards" `Quick
            test_differential_shards_2;
          Alcotest.test_case "interleaved = isolated, 4 shards" `Quick
            test_differential_shards_4;
          Alcotest.test_case "without origins" `Quick
            test_differential_no_origins;
          Alcotest.test_case "one shard never drops" `Quick
            test_inline_shard_never_drops;
        ] );
      ( "tenant lifecycle",
        [
          Alcotest.test_case "evict mid-stream" `Quick test_evict_mid_stream;
          Alcotest.test_case "admin out-of-band ops" `Quick
            test_admin_out_of_band;
        ] );
      ( "release_pid",
        [
          Alcotest.test_case "store" `Quick test_store_release_pid;
          Alcotest.test_case "storage" `Quick test_storage_release_pid;
          Alcotest.test_case "tracker" `Quick test_tracker_release_pid;
        ] );
      ( "provenance index",
        [
          Alcotest.test_case "scans stay per-pid (1k cold pids)" `Quick
            test_provenance_scans_stay_per_pid;
          Alcotest.test_case "release_pid" `Quick test_provenance_release_pid;
        ] );
      ( "streaming readers",
        [
          Alcotest.test_case "reader = load, both formats" `Quick
            test_reader_matches_load;
          Alcotest.test_case "truncated binary positioned error" `Quick
            test_truncated_binary_positioned_error;
          Alcotest.test_case "binary decode allocates only items" `Quick
            test_binary_decode_allocation;
          Alcotest.test_case "corrupt binary, one case per check" `Quick
            test_corrupt_binary_table;
          Alcotest.test_case "backwards event seq, text" `Quick
            (test_backwards_seq Trace_io.Text
               "Trace_io: line 10: event seq 4 goes backwards (previous event 6)");
          Alcotest.test_case "backwards event seq, binary" `Quick
            (test_backwards_seq Trace_io.Binary
               "Trace_io: record 6: event seq 4 goes backwards (previous \
                event 6)");
        ] );
      ( "ingest merge",
        [
          Alcotest.test_case "heap = scan (property)" `Quick
            test_merge_heap_equals_scan;
          Alcotest.test_case "heap = scan (edge cases)" `Quick
            test_merge_edge_cases;
        ] );
      ( "shard-owned ingest",
        [
          Alcotest.test_case "run = isolated, cursors at idle (property)"
            `Quick test_ingest_equals_isolated;
          Alcotest.test_case "pid outside the tenant block fails" `Quick
            test_pid_outside_block;
          Alcotest.test_case "no per-item allocation beyond decode" `Quick
            test_ingest_allocation;
        ] );
    ]
