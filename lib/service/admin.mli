(** Control plane of the service engine — the operator-facing API.

    Thin, documented re-exports of {!Engine}'s admin surface, kept as a
    separate module so data-plane code ({!Engine.run}, {!Ingest}) and
    control-plane code read differently at call sites.

    {b Contract:} every function here must be called while the engine
    is {e idle} — between {!Engine.run}s, from the owning domain.  The
    pool join at the end of each run fences all shard state, so reads
    here see everything the run wrote. *)

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

val register_tenant : Engine.t -> pid:int -> ?name:string -> unit -> unit
(** Pre-create or rename a tenant. *)

val register_source :
  Engine.t -> pid:int -> ?kind:string -> Pift_util.Range.t -> unit
(** Taint a range out of band (a Manager-path source registration). *)

val query_sink :
  Engine.t -> pid:int -> ?kind:string -> Pift_util.Range.t list -> verdict
(** Sink verdict without touching the tenant's verdict log. *)

val untaint_range : Engine.t -> pid:int -> Pift_util.Range.t -> unit

val evict_tenant : Engine.t -> pid:int -> bool
(** Release all tenant state; [false] if the pid was not resident. *)

val snapshot_tenant : Engine.t -> pid:int -> tenant_snapshot option
val tenants : Engine.t -> int list
val stats : Engine.t -> stats
val registries : Engine.t -> Pift_obs.Registry.t array
val telemetries : Engine.t -> Pift_obs.Telemetry.t array

(** {1 Durability}

    The snapshot/restore leg of the control plane — see {!Snapshot}
    for the on-disk format and the full restore contract. *)

type tenant_persisted = Engine.tenant_persisted = {
  tp_pid : int;
  tp_name : string;
  tp_verdicts : verdict list;  (** stream order *)
  tp_state : Pift_core.Tracker.persisted;
}

val persist_tenant : Engine.t -> pid:int -> tenant_persisted option
val persist_tenants : Engine.t -> tenant_persisted list

val restore_tenant : Engine.t -> tenant_persisted -> unit
(** See {!Engine.restore_tenant}: fresh pid slots only; occupancy is
    folded into the shard gauge. *)

val save_snapshot : ?sources:Snapshot.source_entry list -> Engine.t -> string -> unit
(** Write a [PIFTSNAP1] snapshot of every resident tenant, atomically. *)

val load_snapshot : string -> Snapshot.t

val restore_snapshot : Engine.t -> Snapshot.t -> unit
(** Restore every tenant; raises [Invalid_argument] on a config
    mismatch (policy/origins/pid_range — shard count is free). *)
