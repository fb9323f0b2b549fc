(** The PIFT taint-propagation heuristic — Algorithm 1 of the paper.

    The tracker consumes the instruction-event stream.  On a load whose
    address range overlaps tainted state it opens (or restarts) a
    *tainting window* of [ni] instructions; the target ranges of the next
    up-to-[nt] stores inside the window are tainted; stores outside the
    window (or beyond the propagation cap) are optionally *untainted*.
    Windows are per-process, measured on the per-process instruction
    counter.

    Sources register tainted ranges with {!taint_source} (the PIFT
    Manager / Native / Module path of Fig. 3); sinks query with
    {!is_tainted}. *)

type t

val create :
  ?policy:Policy.t -> ?store:Store.t -> ?metrics:Pift_obs.Registry.t ->
  ?flight:Pift_obs.Flight.t -> ?prov:Provenance.t ->
  ?telemetry:Pift_obs.Telemetry.t -> ?profile:Pift_obs.Profile.t -> unit -> t
(** [policy] defaults to {!Policy.default}; [store] to
    [Store.create ()], the production [Flat] store (the test references
    [Store.create ~backend ()] give identical verdicts and stats).  When
    [metrics] is given, the tracker registers [pift_tracker_*] counters
    and gauges (events, lookups, tainted loads, taint/untaint ops,
    tainted-bytes and range-count gauges, and a per-pid
    [pift_tracker_window_opens_total] family) and keeps them in
    lock-step with {!stats}; without it the observer path is a no-op.

    When [flight] is given, the tracker also stamps the flight recorder:
    an instant per {!taint_source} (["source"]) and per {!is_tainted}
    query (["sink-check"]), counter samples ["tainted_bytes"]/["ranges"]
    whenever the peaks update, and ["window_used"] per in-window store
    taint — the fine-grained counter tracks behind [--trace-out] on
    single replays.

    When [prov] is given (create it with the same policy),
    the tracker drives it as an origin-set sidecar: sources land with
    their kind as the label, every observed event and [untaint_range]
    is mirrored, and {!origins_of} answers from it.  The sidecar's
    per-label union equals the tracker's own taint state at every step,
    so verdicts, stats and stdout are unchanged by threading it.

    When [telemetry] is given, the tracker registers the
    ["tainted_bytes"]/["ranges"]/["window_used"] snapshot sources
    (replacing any previous tracker's bindings on a shared per-slot
    instance) and bumps it once per {!observe}d event, so the snapshot
    cadence follows real event flow.  When [profile] is given, every
    event dispatch is attributed to the ["tracker"] region with store
    operations nested as ["store"].  Both are no-ops when absent, and
    neither ever changes verdicts, stats, or stdout. *)

val policy : t -> Policy.t

val taint_source : ?kind:string -> t -> pid:int -> Pift_util.Range.t -> unit
(** Software-level registration at a source: taint a fresh range.
    [kind] (default ["source"]) is the origin label recorded by the
    provenance sidecar, ignored without one. *)

val untaint_range : t -> pid:int -> Pift_util.Range.t -> unit
(** Software-level removal (e.g. buffer freed and cleared). *)

val release_pid : t -> pid:int -> unit
(** Tenant eviction: drop the pid's window, its store state and (when
    present) its provenance state, then refresh the observability
    gauges/series so occupancy returns to the remaining tenants'
    baseline.  A released pid starts clean if seen again.  Peak stats
    ([max_tainted_bytes]/[max_ranges]) keep their high-water marks. *)

val current_tainted_bytes : t -> int
(** Live store occupancy in bytes (not the peak) — the engine's
    per-shard occupancy gauge reads this around every op/eviction. *)

val current_ranges : t -> int
(** Live distinct-range count (not the peak). *)

val origins_of : t -> pid:int -> Pift_util.Range.t -> string list
(** Source kinds whose data overlaps the range (sorted); [[]] without a
    provenance sidecar. *)

val provenance : t -> Provenance.t option

val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool
(** Software-level query at a sink. *)

val observe : t -> Pift_trace.Event.t -> unit
(** Feed one instruction event (the hardware fast path). *)

val tainted_ranges : t -> pid:int -> Pift_util.Range.t list

type stats = {
  taint_ops : int;  (** store ranges tainted by propagation *)
  untaint_ops : int;  (** store ranges actually untainted *)
  lookups : int;  (** load-time taint queries *)
  tainted_loads : int;  (** queries that hit and opened a window *)
  max_tainted_bytes : int;
  max_ranges : int;
  events : int;
}

val stats : t -> stats

val tainted_bytes_series : t -> Pift_util.Series.t
(** Tainted-bytes-over-time samples (paper Fig. 15); time is the global
    instruction sequence number. *)

val ops_series : t -> Pift_util.Series.t
(** Cumulative tainting+untainting operations over time (Fig. 16). *)

(** {1 Persistence}

    Structural snapshot for the service durability layer
    ({!Pift_service.Snapshot}): the full Algorithm 1 state — stats
    (including peaks), clock, per-pid windows, store intervals, and the
    provenance sidecar when present — as plain data. *)

type persisted = {
  p_stats : stats;
  p_last_time : int;
  p_windows : (int * int * int) list;
      (** (pid, LTLT, NT used), sorted by pid; LTLT can be the -inf
          sentinel, so it needs signed coding *)
  p_store : (int * Pift_util.Range.t list) list;  (** {!Store.t.dump} *)
  p_prov : Provenance.persisted option;
}

val persist : t -> persisted
(** Deterministic: identical tracker states persist identically,
    whatever backend or Hashtbl order.  Raises [Failure] on an
    {!Store.of_storage}-backed tracker (lossy range cache). *)

val restore : t -> persisted -> unit
(** Rebuild persisted state into a freshly created tracker with the
    same policy and provenance mode (the snapshot manifest records both;
    persisted ranges are canonical, so the store backend is free).
    Restored ranges bypass [taint_source], so stats and the sidecar keep
    their persisted values; gauges and the Fig. 15 series are synced once
    at the end.  After [restore t p] the tracker's observable behaviour — verdicts,
    origin sets, stats, future window decisions — is identical to the
    persisted tracker's. *)
