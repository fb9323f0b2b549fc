module Range = Pift_util.Range
module Event = Pift_trace.Event
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Recorded = Pift_eval.Recorded
module Pool = Pift_par.Pool

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
   stats are then the tenant's alone, which is what makes the
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
  (* totals behind stats () *)
  mutable sh_items : int;
  mutable sh_events : int;
  mutable sh_evictions : int;
  mutable sh_bytes : int;  (* live occupancy across this shard's tenants *)
}

type config = {
  shards : int;
  policy : Policy.t;
  pid_range : int;
  with_origins : bool;
}

type t = {
  cfg : config;
  pool : Pool.t;
  shard_arr : shard array;
  mutable closed : bool;
  (* Fault injection for the crash-recovery tests: shard [fault_shard]
     raises after processing [fault_after] more items, on its own slot.
     Armed while idle; only that shard's items disarm it during a run. *)
  mutable fault_shard : int;
  mutable fault_after : int;  (* negative = disarmed *)
}

let make_shard id =
  {
    sh_id = id;
    sh_tenants = Hashtbl.create 8;
    sh_items = 0;
    sh_events = 0;
    sh_evictions = 0;
    sh_bytes = 0;
  }

let create ?(shards = 1) ?(policy = Policy.default) ?(pid_range = 1 lsl 20)
    ?(with_origins = false) () =
  if shards <= 0 then invalid_arg "Engine.create: shards must be positive";
  if pid_range <= 0 then invalid_arg "Engine.create: pid_range must be positive";
  {
    cfg = { shards; policy; pid_range; with_origins };
    (* One pool slot per shard: slot [i] runs shard [i]'s work in
       {!run_shards}, slot 0 being the calling domain. *)
    pool = Pool.create ~jobs:shards ();
    shard_arr = Array.init shards make_shard;
    closed = false;
    fault_shard = 0;
    fault_after = -1;
  }

let shards t = t.cfg.shards
let policy t = t.cfg.policy
let pid_range t = t.cfg.pid_range
let with_origins t = t.cfg.with_origins

(* PID-range partitioning: pids land on shards in contiguous blocks of
   [pid_range], so one process's whole address space of pids-it-spawns
   stays local while distinct tenants spread round-robin. *)
let shard_of t pid =
  let s = pid / t.cfg.pid_range mod t.cfg.shards in
  (s + t.cfg.shards) mod t.cfg.shards

let shard_for t pid = t.shard_arr.(shard_of t pid)

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
      tn

(* Occupancy delta after any op that can move the tenant's store: the
   shard total is a running sum of per-tenant live bytes, so eviction
   can subtract a tenant's exact contribution and return the total to
   the remaining tenants' baseline. *)
let sync_bytes sh tn =
  let now = Tracker.current_tainted_bytes tn.tn_tracker in
  if now <> tn.tn_bytes then begin
    sh.sh_bytes <- sh.sh_bytes + now - tn.tn_bytes;
    tn.tn_bytes <- now
  end

let evict_local sh tn =
  Tracker.release_pid tn.tn_tracker ~pid:tn.tn_pid;
  sh.sh_bytes <- sh.sh_bytes - tn.tn_bytes;
  Hashtbl.remove sh.sh_tenants tn.tn_pid;
  sh.sh_evictions <- sh.sh_evictions + 1

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

exception Injected_fault of int

let inject_fault t ~shard ~after_items =
  if shard < 0 || shard >= t.cfg.shards then
    invalid_arg "Engine.inject_fault: no such shard";
  if after_items < 0 then
    invalid_arg "Engine.inject_fault: after_items must be non-negative";
  t.fault_shard <- shard;
  t.fault_after <- after_items

(* The per-item step, shared by the feeds and {!run}: the armed fault
   (only the faulting shard reads and disarms it), the item count, then
   one tenant op below. *)
let tick t sh =
  if t.fault_after >= 0 && t.fault_shard = sh.sh_id then begin
    if t.fault_after = 0 then begin
      t.fault_after <- -1;
      raise (Injected_fault sh.sh_id)
    end;
    t.fault_after <- t.fault_after - 1
  end;
  sh.sh_items <- sh.sh_items + 1

let on_event sh tn e =
  sh.sh_events <- sh.sh_events + 1;
  Tracker.observe tn.tn_tracker e;
  sync_bytes sh tn

let on_source sh tn ~kind range =
  Tracker.taint_source ~kind tn.tn_tracker ~pid:tn.tn_pid range;
  sync_bytes sh tn

let on_sink t tn ~kind ranges =
  tn.tn_verdicts_rev <-
    sink_verdict t tn ~pid:tn.tn_pid ~kind ranges :: tn.tn_verdicts_rev

let on_untaint sh tn range =
  Tracker.untaint_range tn.tn_tracker ~pid:tn.tn_pid range;
  sync_bytes sh tn

(* --- shard-owned sources ------------------------------------------------ *)

type lane = {
  ln_shard : shard;
  ln_tenant : tenant;
  ln_delta : int;  (* engine pid - recorded pid *)
  ln_lo : int;  (* the tenant's pid block, inclusive *)
  ln_hi : int;
}

exception Pid_outside_block of int

let lane t ~pid ~orig_pid =
  let sh = shard_for t pid in
  let lo = pid - (pid mod t.cfg.pid_range) in
  {
    ln_shard = sh;
    ln_tenant = tenant_of t sh pid;
    ln_delta = pid - orig_pid;
    ln_lo = lo;
    ln_hi = lo + t.cfg.pid_range - 1;
  }

(* The one place a recorded pid becomes an engine pid: forked children
   keep their offset from the recorded main pid, so they stay distinct
   inside the tenant's tracker.  The event stays a handful of ints all
   the way into the tracker. *)
let feed_event t ln ~kind ~seq ~k ~pid ~lo ~hi =
  let sh = ln.ln_shard in
  tick t sh;
  let pid = pid + ln.ln_delta in
  if pid < ln.ln_lo || pid > ln.ln_hi then raise (Pid_outside_block pid);
  sh.sh_events <- sh.sh_events + 1;
  Tracker.observe_fields ln.ln_tenant.tn_tracker ~kind ~seq ~k ~pid ~lo ~hi;
  sync_bytes sh ln.ln_tenant

let feed_marker t ln (m : Recorded.marker) =
  let sh = ln.ln_shard and tn = ln.ln_tenant in
  tick t sh;
  match m with
  | Recorded.Source { kind; range } -> on_source sh tn ~kind range
  | Recorded.Sink { kind; ranges } -> on_sink t tn ~kind ranges

let run_shards t f =
  if t.closed then invalid_arg "Engine.run_shards: engine is shut down";
  Pool.run_job t.pool (fun ~worker -> f worker)

(* --- in-band items ------------------------------------------------------ *)

let pid_of_item = function
  | I_event e -> e.Event.pid
  | I_source { pid; _ } | I_sink { pid; _ } | I_untaint { pid; _ }
  | I_evict { pid } ->
      pid

let process_item t item =
  let sh = shard_for t (pid_of_item item) in
  tick t sh;
  match item with
  | I_event e -> on_event sh (tenant_of t sh e.Event.pid) e
  | I_source { pid; kind; range } -> on_source sh (tenant_of t sh pid) ~kind range
  | I_sink { pid; kind; ranges } -> on_sink t (tenant_of t sh pid) ~kind ranges
  | I_untaint { pid; range } -> on_untaint sh (tenant_of t sh pid) range
  | I_evict { pid } -> (
      match Hashtbl.find_opt sh.sh_tenants pid with
      | None -> ()
      | Some tn -> evict_local sh tn)

let run t stream =
  if t.closed then invalid_arg "Engine.run: engine is shut down";
  let rec go () =
    match stream () with
    | None -> ()
    | Some item ->
        process_item t item;
        go ()
  in
  go ()

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Pool.shutdown t.pool
  end

let with_engine ?shards ?policy ?pid_range ?with_origins f =
  let t = create ?shards ?policy ?pid_range ?with_origins () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- admin API (engine idle: between runs, from the owning thread) ---- *)

let find_tenant t pid = Hashtbl.find_opt (shard_for t pid).sh_tenants pid

let register_tenant t ~pid ?name () =
  let tn = tenant_of t (shard_for t pid) pid in
  match name with Some n -> tn.tn_name <- n | None -> ()

let register_source t ~pid ?(kind = "source") range =
  let sh = shard_for t pid in
  on_source sh (tenant_of t sh pid) ~kind range

let query_sink t ~pid ?(kind = "sink") ranges =
  match find_tenant t pid with
  | None -> { v_kind = kind; v_flagged = false; v_origins = [] }
  | Some tn -> sink_verdict t tn ~pid ~kind ranges

let untaint_range t ~pid range =
  match find_tenant t pid with
  | None -> ()
  | Some tn -> on_untaint (shard_for t pid) tn range

let evict_tenant t ~pid =
  match find_tenant t pid with
  | None -> false
  | Some tn ->
      evict_local (shard_for t pid) tn;
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
      Some
        {
          ts_pid = pid;
          ts_name = tn.tn_name;
          ts_shard = shard_of t pid;
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
   total, so a restore immediately followed by an eviction returns the
   total to the survivors' baseline (the restore-then-evict test). *)
let restore_tenant t tp =
  let sh = shard_for t tp.tp_pid in
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
             ss_batches = 0;
             ss_dropped = 0;
             ss_max_queue_depth = 0;
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
