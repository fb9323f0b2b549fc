(** Provenance-carrying variant of Algorithm 1: taint tags identify the
    source that produced them.

    The paper's related work (Raksha, Flexitaint) uses multi-bit tags to
    carry policy; the natural PIFT extension is to carry *source
    identity*, so a sink check answers not just "is this tainted" but
    "this buffer contains data derived from the IMEI and the phone
    number".  The window mechanics are identical to {!Tracker}: a load
    hitting any tainted range opens the window and records the union of
    the labels it touched; the up-to-NT in-window stores inherit that
    label set; out-of-window stores untaint all labels.

    State is one taint set per (process, label) — backed by any
    {!Store_backend} — so per-label cost matches the plain tracker and
    the label count only multiplies the source-registration footprint.
    The sets are indexed pid-first (pid -> label -> set), so the scan
    paths ([hit_labels], untainting) cost one probe per label of the
    *probed* process: cold processes held by a long-lived engine add
    nothing to another tenant's per-event cost.

    {b Invariant} (the basis of every origin-set guarantee downstream):
    the union of the per-label sets equals the plain {!Tracker} state at
    every point of the replay.  A load opens the provenance window iff
    any label set overlaps, which by the union is exactly when the
    tracker's set overlaps; propagation and untainting apply to every
    window label.  Hence a tracker-flagged sink always has a non-empty
    origin set, and vice versa. *)

type t

val create :
  ?policy:Policy.t -> ?backend:Store_backend.backend -> unit -> t
(** [backend] (default [Flat], the production store) picks the
    per-label taint-set representation; the [Functional] and [Bytemap]
    references give identical label sets. *)

val policy : t -> Policy.t

val taint_source : t -> pid:int -> label:string -> Pift_util.Range.t -> unit

val untaint_range : t -> pid:int -> Pift_util.Range.t -> unit
(** Software-level removal, mirroring {!Tracker.untaint_range}: the
    range is dropped from every label of the process. *)

val release_pid : t -> pid:int -> unit
(** Tenant eviction: drop every label set and the window of [pid].  The
    pid can be re-registered later and starts from a clean slate. *)

val probes : t -> int
(** Cumulative count of per-label set visits on the scan paths
    ([hit_labels] / untainting).  Regression handle for the per-pid
    index: with N cold pids resident, probing one pid must cost that
    pid's label count, not the table size. *)

val observe : t -> Pift_trace.Event.t -> unit

val labels_of : t -> pid:int -> Pift_util.Range.t -> string list
(** Labels whose taint overlaps the range, sorted. *)

val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool

val all_labels : t -> string list
(** Every label ever registered, sorted. *)

val tainted_bytes : t -> label:string -> int

val entries : t -> ((int * string) * Pift_util.Range.t list) list
(** Full state dump for emission: ((pid, label), ranges), sorted by
    (pid, label) — the only sanctioned way to iterate the state for
    output, so provenance emissions are byte-identical across runs,
    backends and [--jobs] counts. *)

(** {1 Persistence}

    Structural snapshot of the sidecar for the service durability layer
    ({!Pift_service.Snapshot}): everything [observe]/[labels_of] depend
    on, in deterministic (sorted) order, as plain data the snapshot
    format can encode. *)

type persisted_window = {
  pw_pid : int;
  pw_ltlt : int;
  pw_nt_used : int;
  pw_labels : string list;  (** sorted *)
  pw_opener_seq : int;
  pw_opener_range : Pift_util.Range.t option;
}

type persisted = {
  ps_entries : ((int * string) * Pift_util.Range.t list) list;
      (** as {!entries}: sorted by (pid, label) *)
  ps_windows : persisted_window list;  (** sorted by pid *)
  ps_known_labels : string list;  (** sorted; may exceed [ps_entries]'
      labels — a label stays known after its ranges untaint *)
  ps_probes : int;
}

val persist : t -> persisted

val restore : t -> persisted -> unit
(** Rebuild persisted state into a freshly created sidecar.  The target
    must have been created with the same policy as the persisted
    instance (the snapshot manifest records it; persisted sets are
    canonical range lists, so the backend is free); after
    [restore t p], [persist t] equals [p] up to empty-set elision. *)

(** {1 Propagation hook}

    The graph builder ({!Pift_eval.Explain}) needs, per in-window store,
    the load that opened the window and the label set it carried. *)

type propagation = {
  p_pid : int;
  p_store_seq : int;  (** global sequence of the tainted store *)
  p_stored : Pift_util.Range.t;  (** range the store tainted *)
  p_load_seq : int;  (** the tainted load that opened the window *)
  p_loaded : Pift_util.Range.t;  (** range that load read *)
  p_labels : string list;  (** window label set, sorted *)
}

val set_on_propagate : t -> (propagation -> unit) -> unit
(** Invoked once per in-window store whose window was opened by a
    tainted load (i.e. once per taint propagation).  Off by default;
    the hot path pays one option check when unset. *)

(** {1 Flow graphs}

    The shared graph representation behind [pift why], [--prov-out] and
    the CI-validated exports: nodes are source registrations, loads,
    stores and sink checks; edges are propagations in dataflow order,
    stamped with the global sequence number at which the data moved.
    Nodes are cached by (kind, pid, range, seq), so walks from several
    sinks share their common sub-chains and the result is a DAG. *)
module Graph : sig
  type node_kind =
    | N_source of string  (** source registration, carrying its label *)
    | N_load  (** tainted load that opened a window *)
    | N_store  (** in-window store that propagated taint *)
    | N_sink of string  (** flagged sink check, carrying its kind *)

  type node = {
    id : int;  (** dense, in creation order (deterministic) *)
    kind : node_kind;
    pid : int;
    range : Pift_util.Range.t;
    seq : int;  (** global sequence number of the event/marker *)
  }

  type edge = { e_from : int; e_to : int; e_seq : int }

  type t

  val create : unit -> t

  val node :
    t -> kind:node_kind -> pid:int -> range:Pift_util.Range.t -> seq:int ->
    node
  (** Cached: an existing node with the same (kind, pid, range, seq) is
      returned instead of a duplicate. *)

  val edge : t -> src:node -> dst:node -> seq:int -> unit
  (** Directed dataflow edge; duplicates are dropped. *)

  val nodes : t -> node list
  (** In creation order (ascending [id]). *)

  val edges : t -> edge list
  (** Sorted by (from, to, seq). *)

  val node_count : t -> int
  val edge_count : t -> int

  val kind_label : node_kind -> string
  (** ["source IMEI"], ["load"], ["store"], ["sink http"]. *)

  val to_dot : ?name:string -> t -> string
  (** Graphviz DOT rendering; nodes sorted by id, edges by (from, to,
      seq), so the output is byte-identical for identical graphs. *)

  type sink_summary = {
    ss_kind : string;
    ss_seq : int;
    ss_origins : string list;  (** sorted *)
    ss_nodes : int;  (** longest origin path, in nodes *)
  }
  (** Per-sink digest carried in the JSON export so [pift report] can
      print a flow summary without re-deriving the walks. *)

  val flow_json : ?run:string -> ?sinks:sink_summary list -> t -> Pift_obs.Json.t
  (** Perfetto-loadable export: a ["traceEvents"] array with one
      zero-width slice per node at [ts = seq] µs plus one [s]/[f] flow
      event pair per edge, and a ["pift_flow_graph"] object ([run],
      node/edge counts, [sinks]) that both summarizes the graph and
      serves as the {!Pift_obs.Sink.classify} sniffing key. *)
end
