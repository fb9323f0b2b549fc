module Range = Pift_util.Range
module Trace = Pift_trace.Trace
module Cpu = Pift_machine.Cpu
module Env = Pift_runtime.Env
module Manager = Pift_runtime.Manager
module Vm = Pift_dalvik.Vm
module App = Pift_workloads.App
module Tracker = Pift_core.Tracker
module Store = Pift_core.Store
module Full_dift = Pift_baseline.Full_dift

type marker =
  | Source of { kind : string; range : Range.t }
  | Sink of { kind : string; ranges : Range.t list }

type t = {
  name : string;
  trace : Trace.t;
  markers : (int * marker) array;
  pid : int;
  bytecodes : int;
}

let record ?mode ?metrics ?flight ?profile (app : App.t) =
  Pift_obs.Profile.span profile "record" @@ fun () ->
  let trace = Trace.create () in
  let env = Env.create ?metrics ~sink:(Trace.sink trace) () in
  let markers = ref [] in
  let seq () = Cpu.global_seq env.Env.cpu in
  let stamp name =
    match flight with
    | None -> ()
    | Some f -> Pift_obs.Flight.instant f name
  in
  Manager.subscribe_sources env.Env.manager (fun ~pid:_ ~kind r ->
      stamp "source";
      markers := (seq (), Source { kind; range = r }) :: !markers);
  Manager.subscribe_checks env.Env.manager (fun ~pid:_ ~kind ranges ->
      stamp "sink-check";
      markers := (seq (), Sink { kind; ranges }) :: !markers);
  let natives = Pift_runtime.Api.registry @ app.App.natives in
  let vm =
    Vm.create ?mode ~natives ?metrics ?flight ?profile env (app.App.program ())
  in
  (match Vm.run vm with `Ok | `Uncaught _ -> ());
  {
    name = app.App.name;
    trace;
    markers = Array.of_list (List.rev !markers);
    pid = Env.pid env;
    bytecodes = Vm.bytecodes_executed vm;
  }

type verdict = { kind : string; flagged : bool }

type origin_verdict = {
  ov_kind : string;
  ov_flagged : bool;
  ov_origins : string list;
}

type replay = {
  verdicts : verdict list;
  flagged : bool;
  stats : Tracker.stats;
  bytes_series : Pift_util.Series.t;
  ops_series : Pift_util.Series.t;
  origins : origin_verdict list;
}

(* Walk events and markers in global-sequence order, calling [on_marker]
   for every marker once all events up to its timestamp have been fed. *)
let interleave t ~observe ~on_marker =
  let mi = ref 0 in
  let n = Array.length t.markers in
  let apply_until seq =
    while !mi < n && fst t.markers.(!mi) <= seq do
      on_marker (snd t.markers.(!mi));
      incr mi
    done
  in
  apply_until 0;
  Trace.iter
    (fun e ->
      observe e;
      apply_until e.Pift_trace.Event.seq)
    t.trace;
  apply_until max_int

type item = Item_event of Pift_trace.Event.t | Item_marker of int * marker

(* Pull-stream twin of [interleave]: the same order, one item per call.
   A marker is due once every event up to its timestamp has been
   emitted, so markers between two events surface after the later one —
   exactly where [interleave] fires [on_marker] and where the trace
   writers serialize them.  The engine's ingest front merges several of
   these streams without materialising any of them. *)
let items t =
  let mi = ref 0 and ei = ref 0 in
  let nm = Array.length t.markers in
  let ne = Trace.length t.trace in
  let last_seq = ref 0 in
  fun () ->
    if !mi < nm && fst t.markers.(!mi) <= !last_seq then begin
      let mseq, m = t.markers.(!mi) in
      incr mi;
      Some (Item_marker (mseq, m))
    end
    else if !ei < ne then begin
      let e = Trace.get t.trace !ei in
      incr ei;
      last_seq := e.Pift_trace.Event.seq;
      Some (Item_event e)
    end
    else if !mi < nm then begin
      let mseq, m = t.markers.(!mi) in
      incr mi;
      Some (Item_marker (mseq, m))
    end
    else None

let replay ?(backend = Store.Flat) ?store ?metrics ?flight ?telemetry
    ?profile ?(with_origins = false) ~policy t =
  Pift_obs.Profile.span profile "replay" @@ fun () ->
  let store =
    match store with
    | Some store -> store
    | None -> Store.create ~backend ()
  in
  let store =
    match metrics with
    | Some registry -> Store.with_metrics registry store
    | None -> store
  in
  (* The sidecar shares the replay's policy and backend; sink-time origin
     sets must be captured at the sink check (later untainting can erase
     them), hence the [origin_verdict] list rather than a final query. *)
  let prov =
    if with_origins then
      Some (Pift_core.Provenance.create ~policy ~backend ())
    else None
  in
  let tracker =
    Tracker.create ~policy ~store ?metrics ?flight ?prov ?telemetry ?profile ()
  in
  let verdicts = ref [] in
  let origin_verdicts = ref [] in
  let on_marker = function
    | Source { kind; range } ->
        Tracker.taint_source ~kind tracker ~pid:t.pid range
    | Sink { kind; ranges } ->
        let flagged =
          List.exists (fun r -> Tracker.is_tainted tracker ~pid:t.pid r) ranges
        in
        verdicts := { kind; flagged } :: !verdicts;
        if with_origins then begin
          let origins =
            List.sort_uniq String.compare
              (List.concat_map
                 (fun r -> Tracker.origins_of tracker ~pid:t.pid r)
                 ranges)
          in
          origin_verdicts :=
            { ov_kind = kind; ov_flagged = flagged; ov_origins = origins }
            :: !origin_verdicts
        end
  in
  interleave t ~observe:(Tracker.observe tracker) ~on_marker;
  let verdicts = List.rev !verdicts in
  {
    verdicts;
    flagged = List.exists (fun (v : verdict) -> v.flagged) verdicts;
    stats = Tracker.stats tracker;
    bytes_series = Tracker.tainted_bytes_series tracker;
    ops_series = Tracker.ops_series tracker;
    origins = List.rev !origin_verdicts;
  }

type dift_replay = {
  dift_verdicts : verdict list;
  dift_flagged : bool;
  propagations : int;
  dift_origins : origin_verdict list;
}

let replay_dift ?(with_origins = false) t =
  let dift = Full_dift.create ~track_origins:with_origins () in
  let verdicts = ref [] in
  let origin_verdicts = ref [] in
  let on_marker = function
    | Source { kind; range } ->
        Full_dift.taint_source ~kind dift ~pid:t.pid range
    | Sink { kind; ranges } ->
        let flagged =
          List.exists
            (fun r -> Full_dift.is_tainted dift ~pid:t.pid r)
            ranges
        in
        verdicts := { kind; flagged } :: !verdicts;
        if with_origins then begin
          let origins =
            List.sort_uniq String.compare
              (List.concat_map
                 (fun r -> Full_dift.origins_of dift ~pid:t.pid r)
                 ranges)
          in
          origin_verdicts :=
            { ov_kind = kind; ov_flagged = flagged; ov_origins = origins }
            :: !origin_verdicts
        end
  in
  interleave t ~observe:(Full_dift.observe dift) ~on_marker;
  let dift_verdicts = List.rev !verdicts in
  {
    dift_verdicts;
    dift_flagged = List.exists (fun (v : verdict) -> v.flagged) dift_verdicts;
    propagations = Full_dift.propagations dift;
    dift_origins = List.rev !origin_verdicts;
  }

type provenance_verdict = { pv_kind : string; leaked : string list }

let replay_provenance ~policy t =
  let module Provenance = Pift_core.Provenance in
  let prov = Provenance.create ~policy () in
  let verdicts = ref [] in
  let on_marker = function
    | Source { kind; range } ->
        Provenance.taint_source prov ~pid:t.pid ~label:kind range
    | Sink { kind; ranges } ->
        let leaked =
          List.sort_uniq String.compare
            (List.concat_map
               (fun r -> Provenance.labels_of prov ~pid:t.pid r)
               ranges)
        in
        verdicts := { pv_kind = kind; leaked } :: !verdicts
  in
  interleave t ~observe:(Provenance.observe prov) ~on_marker;
  List.rev !verdicts
