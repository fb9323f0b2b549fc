module Range = Pift_util.Range
module Event = Pift_trace.Event
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Pool = Pift_par.Pool
module Registry = Pift_obs.Registry
module Telemetry = Pift_obs.Telemetry
module Counter = Pift_obs.Metric.Counter
module Gauge = Pift_obs.Metric.Gauge

type item =
  | I_event of Event.t
  | I_source of { pid : int; kind : string; range : Range.t }
  | I_sink of { pid : int; kind : string; ranges : Range.t list }
  | I_untaint of { pid : int; range : Range.t }
  | I_evict of { pid : int }

type stream = unit -> item option

type verdict = { v_kind : string; v_flagged : bool; v_origins : string list }

(* One tenant = one pid = one private tracker stack (store + optional
   provenance sidecar).  Private per tenant, not per shard: the tracker's
   stats and series are then the tenant's alone, which is what makes the
   interleaved engine byte-identical to N isolated replays — the
   differential harness's whole claim. *)
type tenant = {
  tn_pid : int;
  mutable tn_name : string;
  tn_tracker : Tracker.t;
  mutable tn_verdicts_rev : verdict list;
  mutable tn_bytes : int;  (* last synced store occupancy, bytes *)
}

type shard = {
  sh_id : int;
  sh_tenants : (int, tenant) Hashtbl.t;
  sh_registry : Registry.t;
  sh_telemetry : Telemetry.t option;
  mutable sh_queue : item Spsc.t;  (* fresh per run *)
  (* registry cells *)
  sh_c_items : Counter.t;
  sh_c_events : Counter.t;
  sh_c_batches : Counter.t;
  sh_c_evictions : Counter.t;
  sh_c_dropped : Counter.t;
  sh_g_tenants : Gauge.t;
  sh_g_bytes : Gauge.t;
  sh_g_queue : Gauge.t;
  (* plain mirrors for stats () *)
  mutable sh_items : int;
  mutable sh_events : int;
  mutable sh_batches : int;
  mutable sh_evictions : int;
  mutable sh_dropped : int;
  mutable sh_max_queue_depth : int;
  mutable sh_bytes : int;  (* live occupancy across this shard's tenants *)
}

type config = {
  shards : int;
  policy : Policy.t;
  queue_capacity : int;
  batch : int;
  pid_range : int;
  drop_when_full : bool;
  with_origins : bool;
}

type t = {
  cfg : config;
  pool : Pool.t;
  shard_arr : shard array;
  mutable closed : bool;
  (* Fault injection for the crash-recovery tests: the consumer of
     [fault_shard] raises after processing [fault_after] more items,
     exercising the Spsc abort path exactly as a real consumer death
     would.  Armed while idle; only that shard's consumer reads and
     disarms it during a run. *)
  mutable fault_shard : int;
  mutable fault_after : int;  (* negative = disarmed *)
}

let make_shard ~telemetry_capacity id =
  let registry = Registry.create () in
  let c help name = Registry.counter registry ~help name in
  let g help name = Registry.gauge registry ~help name in
  let telemetry =
    if telemetry_capacity > 0 then
      Some (Telemetry.create ~capacity:telemetry_capacity ())
    else None
  in
  let sh =
    {
      sh_id = id;
      sh_tenants = Hashtbl.create 8;
      sh_registry = registry;
      sh_telemetry = telemetry;
      sh_queue = Spsc.create ~capacity:1 ();
      sh_c_items = c "stream items routed to this shard" "pift_service_items_total";
      sh_c_events = c "instruction events observed" "pift_service_events_total";
      sh_c_batches = c "batches consumed off the shard queue" "pift_service_batches_total";
      sh_c_evictions = c "tenants evicted" "pift_service_evictions_total";
      sh_c_dropped =
        c "items dropped by the non-blocking backpressure policy"
          "pift_service_dropped_total";
      sh_g_tenants = g "resident tenants" "pift_service_tenants";
      sh_g_bytes = g "tainted bytes across resident tenants" "pift_service_tainted_bytes";
      sh_g_queue = g "shard queue depth, in batches" "pift_service_queue_depth";
      sh_items = 0;
      sh_events = 0;
      sh_batches = 0;
      sh_evictions = 0;
      sh_dropped = 0;
      sh_max_queue_depth = 0;
      sh_bytes = 0;
    }
  in
  (match telemetry with
  | None -> ()
  | Some te ->
      Telemetry.set_source te ~name:"tainted_bytes" (fun () ->
          float_of_int sh.sh_bytes);
      Telemetry.set_source te ~name:"tenants" (fun () ->
          float_of_int (Hashtbl.length sh.sh_tenants));
      Telemetry.set_source te ~name:"queue_depth" (fun () ->
          float_of_int (Spsc.length sh.sh_queue)));
  sh

let create ?(shards = 1) ?(policy = Policy.default) ?(queue_capacity = 64)
    ?(batch = 128) ?(pid_range = 1 lsl 20) ?(drop_when_full = false)
    ?(with_origins = false) ?(telemetry_capacity = 0) () =
  if shards <= 0 then invalid_arg "Engine.create: shards must be positive";
  if batch <= 0 then invalid_arg "Engine.create: batch must be positive";
  if pid_range <= 0 then invalid_arg "Engine.create: pid_range must be positive";
  let cfg =
    {
      shards;
      policy;
      queue_capacity;
      batch;
      pid_range;
      drop_when_full;
      with_origins;
    }
  in
  {
    cfg;
    (* One pool slot per shard consumer plus slot 0 for the ingest
       producer; [Pool.run_job] hands each role exactly one call. *)
    pool = Pool.create ~jobs:(shards + 1) ();
    shard_arr = Array.init shards (make_shard ~telemetry_capacity);
    closed = false;
    fault_shard = 0;
    fault_after = -1;
  }

let shards t = t.cfg.shards
let policy t = t.cfg.policy
let pid_range t = t.cfg.pid_range
let with_origins t = t.cfg.with_origins
let registries t = Array.map (fun sh -> sh.sh_registry) t.shard_arr

let telemetries t =
  let tes =
    Array.to_list
      (Array.map (fun sh -> sh.sh_telemetry) t.shard_arr)
  in
  Array.of_list (List.filter_map Fun.id tes)

(* PID-range partitioning: pids land on shards in contiguous blocks of
   [pid_range], so one process's whole address space of pids-it-spawns
   stays local while distinct tenants spread round-robin. *)
let shard_of t pid =
  let s = pid / t.cfg.pid_range mod t.cfg.shards in
  t.shard_arr.((s + t.cfg.shards) mod t.cfg.shards)

let tenant_of t sh pid =
  match Hashtbl.find_opt sh.sh_tenants pid with
  | Some tn -> tn
  | None ->
      let cfg = t.cfg in
      let store = Store.create () in
      let prov =
        if cfg.with_origins then
          Some (Provenance.create ~policy:cfg.policy ())
        else None
      in
      let tracker = Tracker.create ~policy:cfg.policy ~store ?prov () in
      let tn =
        {
          tn_pid = pid;
          tn_name = Printf.sprintf "pid-%d" pid;
          tn_tracker = tracker;
          tn_verdicts_rev = [];
          tn_bytes = 0;
        }
      in
      Hashtbl.add sh.sh_tenants pid tn;
      Gauge.set sh.sh_g_tenants (Hashtbl.length sh.sh_tenants);
      tn

(* Occupancy delta after any op that can move the tenant's store: the
   shard gauge is a running sum of per-tenant live bytes, so eviction
   can subtract a tenant's exact contribution and return the gauge to
   the remaining tenants' baseline. *)
let sync_bytes sh tn =
  let now = Tracker.current_tainted_bytes tn.tn_tracker in
  if now <> tn.tn_bytes then begin
    sh.sh_bytes <- sh.sh_bytes + now - tn.tn_bytes;
    tn.tn_bytes <- now;
    Gauge.set sh.sh_g_bytes sh.sh_bytes
  end

let evict_local sh tn =
  Tracker.release_pid tn.tn_tracker ~pid:tn.tn_pid;
  sh.sh_bytes <- sh.sh_bytes - tn.tn_bytes;
  Gauge.set sh.sh_g_bytes sh.sh_bytes;
  Hashtbl.remove sh.sh_tenants tn.tn_pid;
  sh.sh_evictions <- sh.sh_evictions + 1;
  Counter.incr sh.sh_c_evictions;
  Gauge.set sh.sh_g_tenants (Hashtbl.length sh.sh_tenants)

let sink_verdict t tn ~pid ~kind ranges =
  let flagged =
    List.exists (fun r -> Tracker.is_tainted tn.tn_tracker ~pid r) ranges
  in
  let origins =
    if t.cfg.with_origins then
      List.sort_uniq String.compare
        (List.concat_map
           (fun r -> Tracker.origins_of tn.tn_tracker ~pid r)
           ranges)
    else []
  in
  { v_kind = kind; v_flagged = flagged; v_origins = origins }

let process_item t sh item =
  sh.sh_items <- sh.sh_items + 1;
  Counter.incr sh.sh_c_items;
  match item with
  | I_event e ->
      sh.sh_events <- sh.sh_events + 1;
      Counter.incr sh.sh_c_events;
      let tn = tenant_of t sh e.Event.pid in
      Tracker.observe tn.tn_tracker e;
      sync_bytes sh tn
  | I_source { pid; kind; range } ->
      let tn = tenant_of t sh pid in
      Tracker.taint_source ~kind tn.tn_tracker ~pid range;
      sync_bytes sh tn
  | I_sink { pid; kind; ranges } ->
      let tn = tenant_of t sh pid in
      tn.tn_verdicts_rev <-
        sink_verdict t tn ~pid ~kind ranges :: tn.tn_verdicts_rev
  | I_untaint { pid; range } ->
      let tn = tenant_of t sh pid in
      Tracker.untaint_range tn.tn_tracker ~pid range;
      sync_bytes sh tn
  | I_evict { pid } -> (
      match Hashtbl.find_opt sh.sh_tenants pid with
      | None -> ()
      | Some tn -> evict_local sh tn)

let pid_of_item = function
  | I_event e -> e.Event.pid
  | I_source { pid; _ } | I_sink { pid; _ } | I_untaint { pid; _ }
  | I_evict { pid } ->
      pid

(* Ingest producer (pool slot 0): route each item to its shard's local
   batch buffer, push full batches through the bounded queue, close all
   queues at end of stream — also on failure, so shard consumers always
   see end-of-stream and the pool join cannot deadlock on a producer
   exception. *)
let produce t stream =
  let n = t.cfg.shards in
  let dummy = I_evict { pid = min_int } in
  let bufs = Array.init n (fun _ -> Array.make t.cfg.batch dummy) in
  let fills = Array.make n 0 in
  let flush i =
    if fills.(i) > 0 then begin
      let batch = Array.sub bufs.(i) 0 fills.(i) in
      fills.(i) <- 0;
      (* A [Dropped] result is already counted by the queue. *)
      ignore
        (Spsc.push t.shard_arr.(i).sh_queue
           ~drop_when_full:t.cfg.drop_when_full batch)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to n - 1 do
        flush i;
        Spsc.close t.shard_arr.(i).sh_queue
      done)
    (fun () ->
      let rec go () =
        match stream () with
        | None -> ()
        | Some item ->
            let sh = shard_of t (pid_of_item item) in
            let i = sh.sh_id in
            bufs.(i).(fills.(i)) <- item;
            fills.(i) <- fills.(i) + 1;
            if fills.(i) = t.cfg.batch then flush i;
            go ()
      in
      go ())

(* Shard consumer (pool slot 1 + shard id): drain the queue batch by
   batch until closed.  A consumer failure aborts its queue first, so
   the producer can never block against it, then propagates through the
   pool join. *)
exception Injected_fault of int

let inject_fault t ~shard ~after_items =
  if shard < 0 || shard >= t.cfg.shards then
    invalid_arg "Engine.inject_fault: no such shard";
  if after_items < 0 then
    invalid_arg "Engine.inject_fault: after_items must be non-negative";
  t.fault_shard <- shard;
  t.fault_after <- after_items

let consume t sh =
  let q = sh.sh_queue in
  try
    let rec go () =
      match Spsc.pop q with
      | None -> ()
      | Some batch ->
          sh.sh_batches <- sh.sh_batches + 1;
          Counter.incr sh.sh_c_batches;
          Array.iter
            (fun item ->
              if t.fault_after >= 0 && t.fault_shard = sh.sh_id then begin
                if t.fault_after = 0 then begin
                  t.fault_after <- -1;
                  raise (Injected_fault sh.sh_id)
                end;
                t.fault_after <- t.fault_after - 1
              end;
              (match sh.sh_telemetry with
              | None -> ()
              | Some te -> Telemetry.bump te);
              process_item t sh item)
            batch;
          Gauge.set sh.sh_g_queue (Spsc.length q);
          go ()
    in
    go ()
  with exn ->
    Spsc.abort q;
    raise exn

let run t stream =
  if t.closed then invalid_arg "Engine.run: engine is shut down";
  (* Fresh queues per run: the previous run closed them. *)
  Array.iter
    (fun sh -> sh.sh_queue <- Spsc.create ~capacity:t.cfg.queue_capacity ())
    t.shard_arr;
  Fun.protect
    ~finally:(fun () ->
      (* Fold the run's queue tallies into the shard totals whether the
         run succeeded or not. *)
      Array.iter
        (fun sh ->
          let q = sh.sh_queue in
          let d = Spsc.dropped q in
          if d > 0 then begin
            sh.sh_dropped <- sh.sh_dropped + d;
            Counter.add sh.sh_c_dropped d
          end;
          let peak = Spsc.max_depth q in
          if peak > sh.sh_max_queue_depth then sh.sh_max_queue_depth <- peak;
          Gauge.set sh.sh_g_queue peak)
        t.shard_arr)
    (fun () ->
      Pool.run_job t.pool (fun ~worker ->
          if worker = 0 then produce t stream
          else consume t t.shard_arr.(worker - 1)))

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Pool.shutdown t.pool
  end

let with_engine ?shards ?policy ?queue_capacity ?batch ?pid_range
    ?drop_when_full ?with_origins ?telemetry_capacity f =
  let t =
    create ?shards ?policy ?queue_capacity ?batch ?pid_range
      ?drop_when_full ?with_origins ?telemetry_capacity ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- admin API (engine idle: between runs, from the owning thread) ---- *)

let find_tenant t pid = Hashtbl.find_opt (shard_of t pid).sh_tenants pid

let register_tenant t ~pid ?name () =
  let tn = tenant_of t (shard_of t pid) pid in
  match name with Some n -> tn.tn_name <- n | None -> ()

let register_source t ~pid ?(kind = "source") range =
  let sh = shard_of t pid in
  let tn = tenant_of t sh pid in
  Tracker.taint_source ~kind tn.tn_tracker ~pid range;
  sync_bytes sh tn

let query_sink t ~pid ?(kind = "sink") ranges =
  match find_tenant t pid with
  | None -> { v_kind = kind; v_flagged = false; v_origins = [] }
  | Some tn -> sink_verdict t tn ~pid ~kind ranges

let untaint_range t ~pid range =
  match find_tenant t pid with
  | None -> ()
  | Some tn ->
      let sh = shard_of t pid in
      Tracker.untaint_range tn.tn_tracker ~pid range;
      sync_bytes sh tn

let evict_tenant t ~pid =
  match find_tenant t pid with
  | None -> false
  | Some tn ->
      evict_local (shard_of t pid) tn;
      true

type tenant_snapshot = {
  ts_pid : int;
  ts_name : string;
  ts_shard : int;
  ts_verdicts : verdict list;
  ts_stats : Tracker.stats;
  ts_tainted_bytes : int;
  ts_ranges : int;
}

let snapshot_tenant t ~pid =
  match find_tenant t pid with
  | None -> None
  | Some tn ->
      let sh = shard_of t pid in
      Some
        {
          ts_pid = pid;
          ts_name = tn.tn_name;
          ts_shard = sh.sh_id;
          ts_verdicts = List.rev tn.tn_verdicts_rev;
          ts_stats = Tracker.stats tn.tn_tracker;
          ts_tainted_bytes = Tracker.current_tainted_bytes tn.tn_tracker;
          ts_ranges = Tracker.current_ranges tn.tn_tracker;
        }

let tenants t =
  List.sort compare
    (Array.to_list t.shard_arr
    |> List.concat_map (fun sh ->
           Hashtbl.fold (fun pid _ acc -> pid :: acc) sh.sh_tenants []))

(* --- durable persistence (engine idle) --------------------------------- *)

type tenant_persisted = {
  tp_pid : int;
  tp_name : string;
  tp_verdicts : verdict list;  (* stream order *)
  tp_state : Tracker.persisted;
}

let persist_tenant t ~pid =
  match find_tenant t pid with
  | None -> None
  | Some tn ->
      Some
        {
          tp_pid = pid;
          tp_name = tn.tn_name;
          tp_verdicts = List.rev tn.tn_verdicts_rev;
          tp_state = Tracker.persist tn.tn_tracker;
        }

let persist_tenants t = List.filter_map (fun pid -> persist_tenant t ~pid) (tenants t)

(* Rebuilding a tenant routes it to whatever shard the *current* config
   maps its pid to — a snapshot taken at 4 shards restores cleanly into
   a 1-shard engine, because shard placement never leaks into tenant
   state.  [sync_bytes] folds the restored occupancy into the shard
   gauge, so a restore immediately followed by an eviction returns the
   gauge to the survivors' baseline (the restore-then-evict test). *)
let restore_tenant t tp =
  let sh = shard_of t tp.tp_pid in
  if Hashtbl.mem sh.sh_tenants tp.tp_pid then
    invalid_arg
      (Printf.sprintf "Engine.restore_tenant: pid %d already resident"
         tp.tp_pid);
  let tn = tenant_of t sh tp.tp_pid in
  tn.tn_name <- tp.tp_name;
  tn.tn_verdicts_rev <- List.rev tp.tp_verdicts;
  Tracker.restore tn.tn_tracker tp.tp_state;
  sync_bytes sh tn

type shard_stats = {
  ss_shard : int;
  ss_items : int;
  ss_events : int;
  ss_batches : int;
  ss_dropped : int;
  ss_max_queue_depth : int;
  ss_tenants : int;
  ss_evictions : int;
  ss_tainted_bytes : int;
}

type stats = {
  st_shards : shard_stats list;
  st_items : int;
  st_events : int;
  st_batches : int;
  st_dropped : int;
  st_evictions : int;
  st_tenants : int;
  st_tainted_bytes : int;
}

let stats t =
  let per_shard =
    Array.to_list
      (Array.map
         (fun sh ->
           {
             ss_shard = sh.sh_id;
             ss_items = sh.sh_items;
             ss_events = sh.sh_events;
             ss_batches = sh.sh_batches;
             ss_dropped = sh.sh_dropped;
             ss_max_queue_depth = sh.sh_max_queue_depth;
             ss_tenants = Hashtbl.length sh.sh_tenants;
             ss_evictions = sh.sh_evictions;
             ss_tainted_bytes = sh.sh_bytes;
           })
         t.shard_arr)
  in
  List.fold_left
    (fun acc ss ->
      {
        acc with
        st_items = acc.st_items + ss.ss_items;
        st_events = acc.st_events + ss.ss_events;
        st_batches = acc.st_batches + ss.ss_batches;
        st_dropped = acc.st_dropped + ss.ss_dropped;
        st_evictions = acc.st_evictions + ss.ss_evictions;
        st_tenants = acc.st_tenants + ss.ss_tenants;
        st_tainted_bytes = acc.st_tainted_bytes + ss.ss_tainted_bytes;
      })
    {
      st_shards = per_shard;
      st_items = 0;
      st_events = 0;
      st_batches = 0;
      st_dropped = 0;
      st_evictions = 0;
      st_tenants = 0;
      st_tainted_bytes = 0;
    }
    per_shard
