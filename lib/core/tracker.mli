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
  ?policy:Policy.t -> ?store:Store.t -> ?flight:Pift_obs.Flight.t ->
  ?prov:Provenance.t -> ?telemetry:Pift_obs.Telemetry.t ->
  ?profile:Pift_obs.Profile.t -> unit -> t
(** [policy] defaults to {!Policy.default}; [store] to
    [Store.create ()], the production [Flat] store (the test references
    [Store.create ~backend ()] give identical verdicts and stats).

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
    present) its provenance state, so occupancy returns to the
    remaining tenants' baseline.  A released pid starts clean if seen
    again.  Peak stats ([max_tainted_bytes]/[max_ranges]) keep their
    high-water marks. *)

val current_tainted_bytes : t -> int
(** Live store occupancy in bytes (not the peak), as of the tracker's
    last store operation — O(1), a field read.  The engine's per-shard
    occupancy gauge reads it after every item, and {!Pift_eval.Recorded}
    samples it for Fig. 15. *)

val current_ranges : t -> int
(** Live distinct-range count (not the peak), like
    {!current_tainted_bytes}. *)

val ops : t -> int
(** Taint plus untaint operations so far — [taint_ops + untaint_ops] of
    {!stats} without building the record; Fig. 16 samples it. *)

val origins_of : t -> pid:int -> Pift_util.Range.t -> string list
(** Source kinds whose data overlaps the range (sorted); [[]] without a
    provenance sidecar. *)

val provenance : t -> Provenance.t option

val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool
(** Software-level query at a sink. *)

val observe_fields :
  t -> kind:int -> seq:int -> k:int -> pid:int -> lo:int -> hi:int -> unit
(** Feed one instruction event given as the ints Algorithm 1 reads (the
    hardware fast path): [kind] is {!Pift_trace.Event.kind_load},
    [kind_store] or [kind_other], and [lo]/[hi] the accessed range's
    bounds (ignored for [kind_other]).  This is the tracker's one
    Algorithm 1 body; the trace decoders call it through the engine
    without building an event, and a range is allocated only for the
    store operation that needs one. *)

val observe : t -> Pift_trace.Event.t -> unit
(** {!observe_fields} on the event's fields. *)

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

val export : metrics:Pift_obs.Registry.t -> t -> unit
(** Add the tracker's totals so far to [metrics], read from the counts
    behind {!stats}.  [pift_store_*]: add/remove/merge counters for the
    store operations the tracker issued (a merge is an add that did not
    grow the range count) and a range-count gauge.  [pift_tracker_*]:
    events, lookups, tainted loads, taint/untaint ops, tainted-bytes and
    range-count gauges (peak = the {!stats} maximum, value = live), and
    a [pift_tracker_window_opens_total] family per resident pid.  Call
    once, at the end of a run. *)

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
    their persisted values; the live occupancy is synced once at the
    end.  After [restore t p] the tracker's observable behaviour — verdicts,
    origin sets, stats, future window decisions — is identical to the
    persisted tracker's. *)
