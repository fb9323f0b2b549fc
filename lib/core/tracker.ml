module Range = Pift_util.Range
module Series = Pift_util.Series
module Event = Pift_trace.Event
module Counter = Pift_obs.Metric.Counter
module Gauge = Pift_obs.Metric.Gauge

type window = { mutable ltlt : int; mutable nt_used : int }

(* Cells resolved once at [create]; the hot path is a field load and an
   integer store per event when metrics are on, nothing when off. *)
type meters = {
  m_events : Counter.t;
  m_lookups : Counter.t;
  m_tainted_loads : Counter.t;
  m_taint_ops : Counter.t;
  m_untaint_ops : Counter.t;
  m_tainted_bytes : Gauge.t;
  m_ranges : Gauge.t;
  m_window_opens : int -> Counter.t;
}

let meters_of registry =
  let c help name = Pift_obs.Registry.counter registry ~help name in
  let g help name = Pift_obs.Registry.gauge registry ~help name in
  let opens =
    Pift_obs.Registry.counter_family registry
      ~help:"tainting windows opened or restarted, per process" ~label:"pid"
      "pift_tracker_window_opens_total"
  in
  {
    m_events = c "instruction events observed" "pift_tracker_events_total";
    m_lookups = c "load-time taint queries" "pift_tracker_lookups_total";
    m_tainted_loads =
      c "queries that hit and opened a window"
        "pift_tracker_tainted_loads_total";
    m_taint_ops =
      c "store ranges tainted by propagation (Fig. 16)"
        "pift_tracker_taint_ops_total";
    m_untaint_ops =
      c "store ranges untainted (Fig. 16)" "pift_tracker_untaint_ops_total";
    m_tainted_bytes =
      g "currently tainted bytes across processes (Fig. 15)"
        "pift_tracker_tainted_bytes";
    m_ranges = g "distinct tainted ranges" "pift_tracker_ranges";
    m_window_opens = (fun pid -> opens (string_of_int pid));
  }

type stats = {
  taint_ops : int;
  untaint_ops : int;
  lookups : int;
  tainted_loads : int;
  max_tainted_bytes : int;
  max_ranges : int;
  events : int;
}

type t = {
  policy : Policy.t;
  store : Store.t;
  windows : (int, window) Hashtbl.t;
  mutable taint_ops : int;
  mutable untaint_ops : int;
  mutable lookups : int;
  mutable tainted_loads : int;
  mutable max_tainted_bytes : int;
  mutable max_ranges : int;
  mutable events : int;
  mutable last_time : int;
  bytes_series : Series.t;
  ops_series : Series.t;
  meters : meters option;
  flight : Pift_obs.Flight.t option;
  prov : Provenance.t option;
  telemetry : Pift_obs.Telemetry.t option;
  profile : Pift_obs.Profile.t option;
  mutable last_window_used : int;  (* telemetry's window_used source *)
}

(* LTLT <- -inf (Algorithm 1 line 8); any value with ltlt + ni < 1 works. *)
let minus_infinity = min_int / 2

let create ?(policy = Policy.default) ?(store = Store.create ()) ?metrics
    ?flight ?prov ?telemetry ?profile () =
  let t =
    {
      flight;
      prov;
      telemetry;
      profile;
      policy;
      store;
      windows = Hashtbl.create 4;
      taint_ops = 0;
      untaint_ops = 0;
      lookups = 0;
      tainted_loads = 0;
      max_tainted_bytes = 0;
      max_ranges = 0;
      events = 0;
      last_time = 0;
      last_window_used = 0;
      bytes_series = Series.create ~name:"tainted bytes" ();
      ops_series = Series.create ~name:"taint+untaint ops" ();
      meters = Option.map meters_of metrics;
    }
  in
  (* Telemetry sources are closures over this tracker's live state; they
     replace any previous tracker's bindings on the shared per-slot
     instance (a sweep builds one tracker per grid cell). *)
  (match telemetry with
  | None -> ()
  | Some te ->
      let module Telemetry = Pift_obs.Telemetry in
      Telemetry.set_source te ~name:"tainted_bytes" (fun () ->
          float_of_int (t.store.Store.tainted_bytes ()));
      Telemetry.set_source te ~name:"ranges" (fun () ->
          float_of_int (t.store.Store.range_count ()));
      Telemetry.set_source te ~name:"window_used" (fun () ->
          float_of_int t.last_window_used));
  t

let policy t = t.policy

let window t pid =
  match Hashtbl.find_opt t.windows pid with
  | Some w -> w
  | None ->
      let w = { ltlt = minus_infinity; nt_used = 0 } in
      Hashtbl.add t.windows pid w;
      w

(* Store operations bracketed as "store" profiler regions, so folded
   stacks separate interval-set cost from the tracker's own window
   logic; the [None] branch costs one match, the usual gating. *)
let st_overlaps t ~pid r =
  match t.profile with
  | None -> t.store.Store.overlaps ~pid r
  | Some p ->
      Pift_obs.Profile.enter p "store";
      let v = t.store.Store.overlaps ~pid r in
      Pift_obs.Profile.leave p;
      v

let st_add t ~pid r =
  match t.profile with
  | None -> t.store.Store.add ~pid r
  | Some p ->
      Pift_obs.Profile.enter p "store";
      t.store.Store.add ~pid r;
      Pift_obs.Profile.leave p

let st_remove t ~pid r =
  match t.profile with
  | None -> t.store.Store.remove ~pid r
  | Some p ->
      Pift_obs.Profile.enter p "store";
      t.store.Store.remove ~pid r;
      Pift_obs.Profile.leave p

let update_peaks t ~time =
  let bytes = t.store.Store.tainted_bytes () in
  let count = t.store.Store.range_count () in
  if bytes > t.max_tainted_bytes then t.max_tainted_bytes <- bytes;
  if count > t.max_ranges then t.max_ranges <- count;
  (match t.meters with
  | None -> ()
  | Some m ->
      Gauge.set m.m_tainted_bytes bytes;
      Gauge.set m.m_ranges count);
  (match t.flight with
  | None -> ()
  | Some f ->
      Pift_obs.Flight.sample f "tainted_bytes" (float_of_int bytes);
      Pift_obs.Flight.sample f "ranges" (float_of_int count));
  Series.record_if_changed t.bytes_series ~time ~value:bytes

let record_op t ~time =
  Series.record t.ops_series ~time ~value:(t.taint_ops + t.untaint_ops)

let taint_source ?(kind = "source") t ~pid r =
  (match t.flight with
  | None -> ()
  | Some f -> Pift_obs.Flight.instant f "source");
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.taint_source p ~pid ~label:kind r);
  st_add t ~pid r;
  update_peaks t ~time:t.last_time

(* Like [taint_source], a Manager-driven untaint must land in the
   observability state: without the [update_peaks] call the tainted-bytes
   gauges went stale and Fig. 15's bytes-over-time curve missed the dip
   when a source range is untainted. *)
let untaint_range t ~pid r =
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.untaint_range p ~pid r);
  st_remove t ~pid r;
  update_peaks t ~time:t.last_time

(* Tenant eviction for a long-lived tracker: the pid's window, taint
   state and provenance sidecar state are all dropped, and the
   observability state sees the dip (same reasoning as [untaint_range] —
   gauges and the Fig. 15 series must not go stale). *)
let release_pid t ~pid =
  Hashtbl.remove t.windows pid;
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.release_pid p ~pid);
  t.store.Store.release_pid ~pid;
  update_peaks t ~time:t.last_time

let current_tainted_bytes t = t.store.Store.tainted_bytes ()
let current_ranges t = t.store.Store.range_count ()

let origins_of t ~pid r =
  match t.prov with
  | None -> []
  | Some p -> Provenance.labels_of p ~pid r

let provenance t = t.prov
let is_tainted t ~pid r =
  (match t.flight with
  | None -> ()
  | Some f -> Pift_obs.Flight.instant f "sink-check");
  st_overlaps t ~pid r
let tainted_ranges t ~pid = t.store.Store.ranges ~pid

let observe_event t e =
  t.events <- t.events + 1;
  (match t.meters with
  | None -> ()
  | Some m -> Counter.incr m.m_events);
  (* The provenance sidecar replays the same Algorithm 1 over per-label
     state; its union equals [t.store] at every step (see Provenance),
     so it never changes verdicts — only answers [origins_of]. *)
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.observe p e);
  if e.Event.seq > t.last_time then t.last_time <- e.Event.seq;
  match e.Event.access with
  | Event.Other -> ()
  | Event.Load r ->
      (* Lines 10–15: a load overlapping R starts (over) the window. *)
      t.lookups <- t.lookups + 1;
      (match t.meters with
      | None -> ()
      | Some m -> Counter.incr m.m_lookups);
      if st_overlaps t ~pid:e.pid r then begin
        t.tainted_loads <- t.tainted_loads + 1;
        (match t.meters with
        | None -> ()
        | Some m ->
            Counter.incr m.m_tainted_loads;
            Counter.incr (m.m_window_opens e.pid));
        let w = window t e.pid in
        w.ltlt <- e.k;
        w.nt_used <- 0
      end
  | Event.Store r ->
      (* Lines 16–23: taint inside the window, up to NT times; otherwise
         untaint (if enabled). *)
      let w = window t e.pid in
      if e.k <= w.ltlt + t.policy.Policy.ni && w.nt_used < t.policy.Policy.nt
      then begin
        st_add t ~pid:e.pid r;
        w.nt_used <- w.nt_used + 1;
        t.last_window_used <- w.nt_used;
        (match t.flight with
        | None -> ()
        | Some f ->
            Pift_obs.Flight.sample f "window_used" (float_of_int w.nt_used));
        t.taint_ops <- t.taint_ops + 1;
        (match t.meters with
        | None -> ()
        | Some m -> Counter.incr m.m_taint_ops);
        record_op t ~time:e.seq;
        update_peaks t ~time:e.seq
      end
      else if t.policy.Policy.untaint && st_overlaps t ~pid:e.pid r
      then begin
        st_remove t ~pid:e.pid r;
        t.untaint_ops <- t.untaint_ops + 1;
        (match t.meters with
        | None -> ()
        | Some m -> Counter.incr m.m_untaint_ops);
        record_op t ~time:e.seq;
        update_peaks t ~time:e.seq
      end

(* The event entry point: one telemetry bump per event (an increment
   and a compare when cadence is quiet), and the whole dispatch
   attributed to the "tracker" region when profiling — store calls
   nest "store" regions beneath it, so tracker self time is the window
   logic proper. *)
let observe t e =
  (match t.telemetry with
  | None -> ()
  | Some te -> Pift_obs.Telemetry.bump te);
  match t.profile with
  | None -> observe_event t e
  | Some p ->
      Pift_obs.Profile.enter p "tracker";
      observe_event t e;
      Pift_obs.Profile.leave p

let stats t =
  {
    taint_ops = t.taint_ops;
    untaint_ops = t.untaint_ops;
    lookups = t.lookups;
    tainted_loads = t.tainted_loads;
    max_tainted_bytes = t.max_tainted_bytes;
    max_ranges = t.max_ranges;
    events = t.events;
  }

let tainted_bytes_series t = t.bytes_series
let ops_series t = t.ops_series

(* --- persistence --------------------------------------------------------- *)

type persisted = {
  p_stats : stats;
  p_last_time : int;
  p_windows : (int * int * int) list;  (* pid, ltlt, nt_used; by pid *)
  p_store : (int * Range.t list) list;  (* Store.dump *)
  p_prov : Provenance.persisted option;
}

let persist t =
  {
    p_stats = stats t;
    p_last_time = t.last_time;
    p_windows =
      List.sort compare
        (Hashtbl.fold
           (fun pid w acc -> (pid, w.ltlt, w.nt_used) :: acc)
           t.windows []);
    p_store = t.store.Store.dump ();
    p_prov = Option.map Provenance.persist t.prov;
  }

(* Rebuild into a fresh tracker of the same policy/prov mode.
   Ranges go through the raw store [add] — not [taint_source] — so the
   provenance sidecar (restored from its own record) and the stats
   counters are not perturbed; one [update_peaks] at the end syncs the
   gauges and the Fig. 15 series to the restored occupancy.  Peaks are
   ≥ current occupancy by invariant, so restoring stats first keeps the
   persisted maxima. *)
let restore t p =
  t.taint_ops <- p.p_stats.taint_ops;
  t.untaint_ops <- p.p_stats.untaint_ops;
  t.lookups <- p.p_stats.lookups;
  t.tainted_loads <- p.p_stats.tainted_loads;
  t.max_tainted_bytes <- p.p_stats.max_tainted_bytes;
  t.max_ranges <- p.p_stats.max_ranges;
  t.events <- p.p_stats.events;
  t.last_time <- p.p_last_time;
  List.iter
    (fun (pid, ltlt, nt_used) ->
      Hashtbl.replace t.windows pid { ltlt; nt_used })
    p.p_windows;
  List.iter
    (fun (pid, ranges) -> List.iter (t.store.Store.add ~pid) ranges)
    p.p_store;
  (match (t.prov, p.p_prov) with
  | Some prov, Some pp -> Provenance.restore prov pp
  | _ -> ());
  update_peaks t ~time:t.last_time
