(* The control-plane face of the engine: everything an operator (or the
   CLI) calls while no run is in flight.  Pure re-exports — the engine
   owns the state; this module exists so call sites read
   [Admin.evict_tenant] rather than reaching into the data-plane
   module, and so the engine-idle contract is documented in one place. *)

type verdict = Engine.verdict = {
  v_kind : string;
  v_flagged : bool;
  v_origins : string list;
}

type tenant_snapshot = Engine.tenant_snapshot = {
  ts_pid : int;
  ts_name : string;
  ts_shard : int;
  ts_verdicts : verdict list;
  ts_stats : Pift_core.Tracker.stats;
  ts_tainted_bytes : int;
  ts_ranges : int;
}

type shard_stats = Engine.shard_stats = {
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

type stats = Engine.stats = {
  st_shards : shard_stats list;
  st_items : int;
  st_events : int;
  st_batches : int;
  st_dropped : int;
  st_evictions : int;
  st_tenants : int;
  st_tainted_bytes : int;
}

type tenant_persisted = Engine.tenant_persisted = {
  tp_pid : int;
  tp_name : string;
  tp_verdicts : verdict list;
  tp_state : Pift_core.Tracker.persisted;
}

let register_tenant = Engine.register_tenant
let register_source = Engine.register_source
let query_sink = Engine.query_sink
let untaint_range = Engine.untaint_range
let evict_tenant = Engine.evict_tenant
let snapshot_tenant = Engine.snapshot_tenant
let tenants = Engine.tenants
let stats = Engine.stats

(* Durability: the snapshot/restore leg of the control plane.  The
   format and file handling live in [Snapshot]; these aliases keep the
   operator surface in one module. *)
let persist_tenant = Engine.persist_tenant
let persist_tenants = Engine.persist_tenants
let restore_tenant = Engine.restore_tenant
let save_snapshot = Snapshot.save
let load_snapshot = Snapshot.load
let restore_snapshot = Snapshot.restore_tenants
