(** The long-lived multi-tenant taint engine.

    One engine owns [shards] shard states and a pool of [shards]
    workers, shard [i] pinned to slot [i] (slot 0 is the calling
    domain, so [~shards:1] spawns no domain).  A shard holds its
    resident tenants — one pid, one private {!Pift_core.Tracker} stack
    (store + optional provenance sidecar) — plus plain per-shard totals
    read through {!stats}.

    {b Sharding.}  Pids are partitioned by contiguous range:
    [shard_of pid = (pid / pid_range) mod shards].  Routing is pure
    arithmetic, so a pid's shard never changes and no cross-shard
    state exists.

    {b Two ways in.}  {!run_shards} is the production path: it calls
    one function per shard on that shard's own slot, and {!Ingest.run}
    uses it to let every shard decode its own tenants' sources and hand
    each event to {!feed_event} as plain ints.  {!run} drains one
    in-band {!stream} of {!item}s on the calling domain.  Both go
    through the same per-item step (armed fault, counters, tenant op).

    {b Determinism.}  Every tenant owns a private tracker, and each
    tenant's items are processed in its own stream order by the one
    slot that owns its shard.  A tenant's verdicts, origin sets and
    stats therefore depend on its own stream alone: after any run they
    are byte-identical to replaying that stream in isolation, at any
    shard count.  The differential harness ([test_service], the CI
    serve leg) enforces this.

    {b Concurrency contract.}  {!run_shards} is the only concurrent
    region: slot [i] may touch shard [i]'s tenants only, and the pool
    join fences all shard state before it returns.  Every other
    function (the admin API, {!stats}, {!snapshot_tenant}, {!run})
    must be called while the engine is idle — outside {!run_shards},
    from the owning domain.  There are no queues: nothing is batched
    or dropped, and the three queue fields of {!stats} are always 0. *)

type t

type item =
  | I_event of Pift_trace.Event.t  (** hardware fast path *)
  | I_source of { pid : int; kind : string; range : Pift_util.Range.t }
      (** in-band source registration *)
  | I_sink of { pid : int; kind : string; ranges : Pift_util.Range.t list }
      (** in-band sink query; the verdict lands in the tenant's log *)
  | I_untaint of { pid : int; range : Pift_util.Range.t }
  | I_evict of { pid : int }  (** in-band tenant eviction *)

type stream = unit -> item option
(** Pull stream of interleaved multi-tenant items ([None] = end). *)

val create :
  ?shards:int ->
  ?policy:Pift_core.Policy.t ->
  ?pid_range:int ->
  ?with_origins:bool ->
  unit ->
  t
(** [shards] (default 1) sets the shard count and builds a pool of
    [shards] workers: the calling domain is slot 0 and runs shard 0,
    so [~shards:1] spawns no domain.  [policy] configures every tenant
    tracker, each on its own production [Flat] store.  [pid_range]
    (default [2{^20}]) is the width of the contiguous pid blocks mapped
    to one shard.  [with_origins] threads a provenance sidecar through
    every tenant so sink verdicts carry origin sets. *)

val shard_of : t -> int -> int
(** The shard that owns [pid]: [(pid / pid_range) mod shards]. *)

val run_shards : t -> (int -> unit) -> unit
(** [run_shards t f] calls [f i] on pool slot [i] for every shard [i]
    at once ([f 0] on the calling domain), joins the pool, and then
    re-raises the first failure.  [f i] may touch shard [i]'s tenants
    only, through {!lane}, {!feed_event} and {!feed_marker}.  A failing
    shard does not stop the others: they finish their [f] first.
    Refuses after {!shutdown}. *)

type lane
(** One tenant resolved for {!feed_event}: its shard, its tracker, and
    the offset from the pids its recording uses to its engine pid. *)

val lane : t -> pid:int -> orig_pid:int -> lane
(** Resolve (creating on first touch) the tenant of engine pid [pid],
    whose recording calls its main process [orig_pid].  Call it on
    [pid]'s own slot inside {!run_shards}, or while idle, once per
    source and run — not per item. *)

exception Pid_outside_block of int
(** Carries the remapped pid. *)

val feed_event :
  t -> lane -> kind:int -> seq:int -> k:int -> pid:int -> lo:int -> hi:int ->
  unit
(** Process one event of the lane's tenant, given as ints
    ({!Pift_eval.Trace_io.on_event}): the armed fault, the counters,
    then {!Pift_core.Tracker.observe_fields}.  The recorded pid [p]
    becomes [p - orig_pid + pid] by one addition, so forked children
    stay distinct inside the tenant.  Raises {!Pid_outside_block} if the
    remapped pid leaves the tenant's [pid_range] block. *)

val feed_marker : t -> lane -> Pift_eval.Recorded.marker -> unit
(** Process one marker of the lane's tenant through the same per-item
    step; markers apply to the tenant's own pid. *)

val run : t -> stream -> unit
(** Drain [stream] to completion on the calling domain, each item
    going to the tenant of its own pid through the same per-item step
    as {!feed_event}.  Engine-idle only.  Tenants are created on first
    touch and survive across runs until evicted. *)

val shutdown : t -> unit
(** Join the pool domains.  Idempotent; {!run} and {!run_shards} refuse
    afterwards (admin reads still work). *)

val with_engine :
  ?shards:int ->
  ?policy:Pift_core.Policy.t ->
  ?pid_range:int ->
  ?with_origins:bool ->
  (t -> 'a) ->
  'a
(** [create], run [f], and {!shutdown} (also on exception). *)

(** {1 Admin API}

    Engine-idle only (see the concurrency contract above). *)

val register_tenant : t -> pid:int -> ?name:string -> unit -> unit
(** Pre-create (or rename) the tenant for [pid].  Tenants are otherwise
    auto-created on first touch with name ["pid-<pid>"]. *)

val register_source :
  t -> pid:int -> ?kind:string -> Pift_util.Range.t -> unit
(** Out-of-band source registration, applied directly to the tenant's
    tracker (not counted as a stream item). *)

type verdict = {
  v_kind : string;
  v_flagged : bool;
  v_origins : string list;  (** sorted; [[]] without [with_origins] *)
}

val query_sink :
  t -> pid:int -> ?kind:string -> Pift_util.Range.t list -> verdict
(** Pure sink query: computes the verdict without appending it to the
    tenant's log.  An unknown pid is clean. *)

val untaint_range : t -> pid:int -> Pift_util.Range.t -> unit
(** Out-of-band untaint; no-op for an unknown pid. *)

val evict_tenant : t -> pid:int -> bool
(** Release the tenant's store, provenance, and window state, subtract
    its bytes from the shard's occupancy total, and forget it.  Returns
    [false] if the pid was not resident.  A later touch of the same pid
    starts a clean tenant. *)

type tenant_snapshot = {
  ts_pid : int;
  ts_name : string;
  ts_shard : int;
  ts_verdicts : verdict list;  (** in-band sink verdicts, stream order *)
  ts_stats : Pift_core.Tracker.stats;
  ts_tainted_bytes : int;  (** live, not peak *)
  ts_ranges : int;
}

val snapshot_tenant : t -> pid:int -> tenant_snapshot option

val tenants : t -> int list
(** Resident pids, sorted. *)

(** {1 Durable persistence}

    Engine-idle only.  {!tenant_persisted} is the full taint stack of
    one tenant — name, in-band verdict log, and the tracker's
    {!Pift_core.Tracker.persisted} state (store intervals, windows,
    stats and peaks, provenance origin sets) — as plain data;
    {!Snapshot} encodes it to the on-disk [PIFTSNAP1] format. *)

type tenant_persisted = {
  tp_pid : int;
  tp_name : string;
  tp_verdicts : verdict list;  (** stream order *)
  tp_state : Pift_core.Tracker.persisted;
}

val persist_tenant : t -> pid:int -> tenant_persisted option

val persist_tenants : t -> tenant_persisted list
(** Every resident tenant, sorted by pid — deterministic, identical
    engine states persist identically at any shard count. *)

val restore_tenant : t -> tenant_persisted -> unit
(** Recreate a tenant from persisted state: same name, verdict log,
    and tracker behaviour as the persisted one.  The tenant lands on
    whatever shard the {e current} config routes its pid to, so a
    snapshot restores cleanly into an engine with a different shard
    count.  The restored occupancy is folded into the shard's byte
    total (so a subsequent eviction returns it to the survivors'
    baseline).  Raises [Invalid_argument] if the pid is
    already resident — restore into fresh or evicted slots only. *)

(** {1 Fault injection}

    Test hook for crash-recovery suites. *)

exception Injected_fault of int
(** Carries the faulting shard id. *)

val inject_fault : t -> shard:int -> after_items:int -> unit
(** Arm (engine-idle) a one-shot fault: [shard] raises
    {!Injected_fault} on its own slot after processing [after_items]
    more items.  This drives the production failure path: the other
    shards finish, and {!run_shards} (or {!run}) re-raises the fault
    after the pool joins.  The engine survives: admin calls and further
    runs still work, exactly like any shard death. *)

type shard_stats = {
  ss_shard : int;
  ss_items : int;
  ss_events : int;
  ss_batches : int;  (** always 0: there are no queues *)
  ss_dropped : int;  (** always 0 *)
  ss_max_queue_depth : int;  (** always 0 *)
  ss_tenants : int;
  ss_evictions : int;
  ss_tainted_bytes : int;  (** live occupancy across resident tenants *)
}

type stats = {
  st_shards : shard_stats list;  (** by shard id *)
  st_items : int;
  st_events : int;
  st_batches : int;  (** always 0 *)
  st_dropped : int;  (** always 0 *)
  st_evictions : int;
  st_tenants : int;
  st_tainted_bytes : int;
}

val stats : t -> stats

(** {1 Introspection} *)

val shards : t -> int
val policy : t -> Pift_core.Policy.t
val pid_range : t -> int
val with_origins : t -> bool
