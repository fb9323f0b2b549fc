module Range = Pift_util.Range
module Event = Pift_trace.Event

type window = {
  mutable ltlt : int;
  mutable nt_used : int;
  mutable opens : int;  (* tainted loads that opened or restarted it *)
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
  (* Store operation totals behind [pift_store_*]: a merge is an add
     that did not grow the store's range count. *)
  mutable store_adds : int;
  mutable store_removes : int;
  mutable store_merges : int;
  (* Store size at the last [update_peaks], which runs after every
     store mutation the tracker makes. *)
  mutable bytes_now : int;
  mutable ranges_now : int;
  (* [windows] entry of the last pid looked up, while [win_valid]. *)
  mutable win_valid : bool;
  mutable win_pid : int;
  mutable win : window;
  flight : Pift_obs.Flight.t option;
  prov : Provenance.t option;
  telemetry : Pift_obs.Telemetry.t option;
  profile : Pift_obs.Profile.t option;
  mutable last_window_used : int;  (* telemetry's window_used source *)
}

(* LTLT <- -inf (Algorithm 1 line 8); any value with ltlt + ni < 1 works. *)
let minus_infinity = min_int / 2

(* The window cache's placeholder, never read: the cache starts
   invalid. *)
let no_window = { ltlt = minus_infinity; nt_used = 0; opens = 0 }

let create ?(policy = Policy.default) ?(store = Store.create ()) ?flight
    ?prov ?telemetry ?profile () =
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
      store_adds = 0;
      store_removes = 0;
      store_merges = 0;
      bytes_now = store.Store.tainted_bytes ();
      ranges_now = store.Store.range_count ();
      win_valid = false;
      win_pid = 0;
      win = no_window;
      last_window_used = 0;
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
  if t.win_valid && pid = t.win_pid then t.win
  else begin
    let w =
      match Hashtbl.find t.windows pid with
      | w -> w
      | exception Not_found ->
          let w = { ltlt = minus_infinity; nt_used = 0; opens = 0 } in
          Hashtbl.add t.windows pid w;
          w
    in
    t.win_valid <- true;
    t.win_pid <- pid;
    t.win <- w;
    w
  end

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
  t.store_adds <- t.store_adds + 1;
  match t.profile with
  | None -> t.store.Store.add ~pid r
  | Some p ->
      Pift_obs.Profile.enter p "store";
      t.store.Store.add ~pid r;
      Pift_obs.Profile.leave p

let st_remove t ~pid r =
  t.store_removes <- t.store_removes + 1;
  match t.profile with
  | None -> t.store.Store.remove ~pid r
  | Some p ->
      Pift_obs.Profile.enter p "store";
      t.store.Store.remove ~pid r;
      Pift_obs.Profile.leave p

(* Runs after every store mutation.  [~added] marks the one following an
   [st_add]: the range count read here anyway, against the count after
   the previous mutation, tells whether that add merged into existing
   ranges — without a second count read, which costs a full scan on a
   {!Store.of_storage} store. *)
let update_peaks ?(added = false) t =
  let bytes = t.store.Store.tainted_bytes () in
  let count = t.store.Store.range_count () in
  if added && count <= t.ranges_now then t.store_merges <- t.store_merges + 1;
  t.bytes_now <- bytes;
  t.ranges_now <- count;
  if bytes > t.max_tainted_bytes then t.max_tainted_bytes <- bytes;
  if count > t.max_ranges then t.max_ranges <- count;
  match t.flight with
  | None -> ()
  | Some f ->
      Pift_obs.Flight.sample f "tainted_bytes" (float_of_int bytes);
      Pift_obs.Flight.sample f "ranges" (float_of_int count)

let taint_source ?(kind = "source") t ~pid r =
  (match t.flight with
  | None -> ()
  | Some f -> Pift_obs.Flight.instant f "source");
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.taint_source p ~pid ~label:kind r);
  st_add t ~pid r;
  update_peaks ~added:true t

(* Like [taint_source], a Manager-driven untaint must land in the
   observability state: without the [update_peaks] call the live
   occupancy (and Fig. 15's bytes-over-time curve sampled from it)
   missed the dip when a source range is untainted. *)
let untaint_range t ~pid r =
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.untaint_range p ~pid r);
  st_remove t ~pid r;
  update_peaks t

(* Tenant eviction for a long-lived tracker: the pid's window, taint
   state and provenance sidecar state are all dropped, and the live
   occupancy sees the dip (same reasoning as [untaint_range]). *)
let release_pid t ~pid =
  Hashtbl.remove t.windows pid;
  if pid = t.win_pid then t.win_valid <- false;
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.release_pid p ~pid);
  t.store.Store.release_pid ~pid;
  update_peaks t

let current_tainted_bytes t = t.bytes_now
let current_ranges t = t.ranges_now
let ops t = t.taint_ops + t.untaint_ops

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

(* Algorithm 1 on one event given as ints — the only copy of its body.
   A range is built only for the store call that needs it. *)
let step t ~kind ~seq ~k ~pid ~lo ~hi =
  t.events <- t.events + 1;
  (* The provenance sidecar replays the same Algorithm 1 over per-label
     state; its union equals [t.store] at every step (see Provenance),
     so it never changes verdicts — only answers [origins_of]. *)
  (match t.prov with
  | None -> ()
  | Some p -> Provenance.observe_fields p ~kind ~seq ~k ~pid ~lo ~hi);
  if seq > t.last_time then t.last_time <- seq;
  if kind = Event.kind_load then begin
    (* Lines 10–15: a load overlapping R starts (over) the window. *)
    t.lookups <- t.lookups + 1;
    if st_overlaps t ~pid (Range.make lo hi) then begin
      t.tainted_loads <- t.tainted_loads + 1;
      let w = window t pid in
      w.ltlt <- k;
      w.nt_used <- 0;
      w.opens <- w.opens + 1
    end
  end
  else if kind = Event.kind_store then begin
    (* Lines 16–23: taint inside the window, up to NT times; otherwise
       untaint (if enabled). *)
    let w = window t pid in
    if k <= w.ltlt + t.policy.Policy.ni && w.nt_used < t.policy.Policy.nt
    then begin
      st_add t ~pid (Range.make lo hi);
      w.nt_used <- w.nt_used + 1;
      t.last_window_used <- w.nt_used;
      (match t.flight with
      | None -> ()
      | Some f ->
          Pift_obs.Flight.sample f "window_used" (float_of_int w.nt_used));
      t.taint_ops <- t.taint_ops + 1;
      update_peaks ~added:true t
    end
    else if t.policy.Policy.untaint then begin
      let r = Range.make lo hi in
      if st_overlaps t ~pid r then begin
        st_remove t ~pid r;
        t.untaint_ops <- t.untaint_ops + 1;
        update_peaks t
      end
    end
  end

(* The event entry point: one telemetry bump per event (an increment
   and a compare when cadence is quiet), and the whole dispatch
   attributed to the "tracker" region when profiling — store calls
   nest "store" regions beneath it, so tracker self time is the window
   logic proper. *)
let observe_fields t ~kind ~seq ~k ~pid ~lo ~hi =
  (match t.telemetry with
  | None -> ()
  | Some te -> Pift_obs.Telemetry.bump te);
  match t.profile with
  | None -> step t ~kind ~seq ~k ~pid ~lo ~hi
  | Some p ->
      Pift_obs.Profile.enter p "tracker";
      step t ~kind ~seq ~k ~pid ~lo ~hi;
      Pift_obs.Profile.leave p

let observe t (e : Event.t) =
  match e.access with
  | Event.Load r ->
      observe_fields t ~kind:Event.kind_load ~seq:e.seq ~k:e.k ~pid:e.pid
        ~lo:(Range.lo r) ~hi:(Range.hi r)
  | Event.Store r ->
      observe_fields t ~kind:Event.kind_store ~seq:e.seq ~k:e.k ~pid:e.pid
        ~lo:(Range.lo r) ~hi:(Range.hi r)
  | Event.Other ->
      observe_fields t ~kind:Event.kind_other ~seq:e.seq ~k:e.k ~pid:e.pid
        ~lo:0 ~hi:0

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

(* Window opens are reported per resident pid, in pid order. *)
let export ~metrics t =
  let module Registry = Pift_obs.Registry in
  let c = Registry.add_counter metrics in
  let g = Registry.set_gauge metrics in
  c ~help:"range insertions into the taint store" "pift_store_add_ops_total"
    t.store_adds;
  c ~help:"range removals from the taint store" "pift_store_remove_ops_total"
    t.store_removes;
  c ~help:"insertions coalesced into an existing range"
    "pift_store_merge_ops_total" t.store_merges;
  g ~help:"distinct ranges held by the store" "pift_store_ranges"
    ~peak:t.max_ranges (current_ranges t);
  let opens =
    Registry.counter_family metrics
      ~help:"tainting windows opened or restarted, per process" ~label:"pid"
      "pift_tracker_window_opens_total"
  in
  Hashtbl.fold (fun pid w acc -> (pid, w.opens) :: acc) t.windows []
  |> List.sort compare
  |> List.iter (fun (pid, n) ->
         if n > 0 then
           Pift_obs.Metric.Counter.add (opens (string_of_int pid)) n);
  g ~help:"distinct tainted ranges" "pift_tracker_ranges" ~peak:t.max_ranges
    (current_ranges t);
  g ~help:"currently tainted bytes across processes (Fig. 15)"
    "pift_tracker_tainted_bytes" ~peak:t.max_tainted_bytes
    (current_tainted_bytes t);
  c ~help:"store ranges untainted (Fig. 16)" "pift_tracker_untaint_ops_total"
    t.untaint_ops;
  c ~help:"store ranges tainted by propagation (Fig. 16)"
    "pift_tracker_taint_ops_total" t.taint_ops;
  c ~help:"queries that hit and opened a window"
    "pift_tracker_tainted_loads_total" t.tainted_loads;
  c ~help:"load-time taint queries" "pift_tracker_lookups_total" t.lookups;
  c ~help:"instruction events observed" "pift_tracker_events_total" t.events

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
   live occupancy to the restored store.  Peaks are
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
  t.win_valid <- false;
  List.iter
    (fun (pid, ltlt, nt_used) ->
      Hashtbl.replace t.windows pid { ltlt; nt_used; opens = 0 })
    p.p_windows;
  List.iter
    (fun (pid, ranges) -> List.iter (t.store.Store.add ~pid) ranges)
    p.p_store;
  (match (t.prov, p.p_prov) with
  | Some prov, Some pp -> Provenance.restore prov pp
  | _ -> ());
  update_peaks t
