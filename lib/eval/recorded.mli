(** Record-once / replay-many harness — the paper's offline methodology:
    "the PIFT Native just prints out the address ranges of source and
    sink, which then are fed into the PIFT analysis code along with the
    CPU instruction stream trace obtained by gem5" (§5).

    An application is executed once; its full instruction trace plus the
    time-stamped source registrations and sink checks are kept.  Any
    number of tracker configurations (the NI×NT sweep needs 200) can then
    be replayed against the recording without re-running the program. *)

type marker =
  | Source of { kind : string; range : Pift_util.Range.t }
  | Sink of { kind : string; ranges : Pift_util.Range.t list }

type t = {
  name : string;
  trace : Pift_trace.Trace.t;
  markers : (int * marker) array;
      (** (global seq at occurrence, marker), in order *)
  pid : int;
  bytecodes : int;
}

val record :
  ?mode:Pift_dalvik.Vm.mode -> ?metrics:Pift_obs.Registry.t ->
  ?flight:Pift_obs.Flight.t -> ?profile:Pift_obs.Profile.t ->
  Pift_workloads.App.t -> t
(** Execute the app and capture everything.  An uncaught application
    exception terminates the run but still yields the recording.
    [mode] selects interpreter or JIT execution (default interpreter);
    [metrics] instruments the CPU and VM of the recording run; [flight]
    additionally stamps ["source"]/["sink-check"] instants as the
    Manager fires and passes through to the VM's ["vm-run"] span;
    [profile] attributes the run to a ["record"] region with the VM's
    ["vm"]/["cpu"] regions nested beneath it. *)

type item =
  | Item_event of Pift_trace.Event.t
  | Item_marker of int * marker  (** (global seq at occurrence, marker) *)
(** One element of a recording viewed as a flat stream — the unit the
    service engine ingests and {!Pift_eval.Trace_io} streams off disk. *)

val items : t -> unit -> item option
(** Pull stream over the recording in replay order: markers surface
    after the last event at-or-before their timestamp, exactly where
    {!replay} applies them and where the trace writers serialize them.
    [None] once exhausted.  Feeding the items of a recording to a
    tracker one at a time is equivalent to {!replay} — the
    interleaving-aware path multi-tenant ingestion is built on. *)

type verdict = { kind : string; flagged : bool }

type origin_verdict = {
  ov_kind : string;
  ov_flagged : bool;  (** the same flag as the plain verdict *)
  ov_origins : string list;
      (** source kinds overlapping the checked ranges at check time,
          sorted *)
}
(** One sink check with its origin set, captured at the moment of the
    check (later untainting cannot erase it). *)

type replay = {
  verdicts : verdict list;  (** in sink-check order *)
  flagged : bool;  (** any sink check came back tainted *)
  stats : Pift_core.Tracker.stats;
  bytes_series : Pift_util.Series.t;
  ops_series : Pift_util.Series.t;
  origins : origin_verdict list;
      (** in sink-check order; [[]] unless replayed [~with_origins] *)
}

val replay :
  ?backend:Pift_core.Store.backend -> ?store:Pift_core.Store.t ->
  ?metrics:Pift_obs.Registry.t -> ?flight:Pift_obs.Flight.t ->
  ?telemetry:Pift_obs.Telemetry.t -> ?profile:Pift_obs.Profile.t ->
  ?with_origins:bool ->
  policy:Pift_core.Policy.t -> t -> replay
(** Run Algorithm 1 over the recording.  [backend] (default [Flat], the
    production store) picks the taint-store representation when no
    explicit [store] is given; the [Functional]/[Bytemap] test
    references give identical verdicts and stats.  With [metrics], the
    tracker and the taint store are instrumented ([pift_tracker_*],
    [pift_store_*]); [flight] is handed to the tracker for fine-grained
    event/counter stamps; verdicts and {!Pift_core.Tracker.stats} are
    unaffected.  [telemetry] is handed to the tracker, which bumps the
    snapshot cadence per event and binds the
    ["tainted_bytes"]/["ranges"]/["window_used"] sources; [profile]
    wraps the whole replay in a ["replay"] region with the tracker's
    ["tracker"]/["store"] regions nested beneath it.  Neither changes
    verdicts, stats, series, or stdout.  [with_origins] (default off)
    threads a
    {!Pift_core.Provenance} sidecar (same policy and backend) through
    the tracker and fills [origins]; verdicts, stats and series are
    byte-identical with it on or off. *)

type dift_replay = {
  dift_verdicts : verdict list;
  dift_flagged : bool;
  propagations : int;
  dift_origins : origin_verdict list;
      (** exact ground-truth origin sets; [[]] unless [~with_origins] *)
}

val replay_dift : ?with_origins:bool -> t -> dift_replay
(** Full register-level DIFT over the same recording (ground truth).
    [with_origins] mirrors every propagation over exact per-source
    origin sets ({!Pift_baseline.Full_dift}) and fills [dift_origins]. *)

type provenance_verdict = { pv_kind : string; leaked : string list }
(** One sink check: which source labels reached it. *)

val replay_provenance :
  policy:Pift_core.Policy.t -> t -> provenance_verdict list
(** Label-carrying replay ({!Pift_core.Provenance}): each sink verdict
    lists the sources whose data reached it. *)
