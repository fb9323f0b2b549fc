(** Named-metric registry: the handle [Recorded.record]/[replay] and
    [Accuracy.sweep] pass to each layer's end-of-run export
    ([Cpu.export], [Vm.export], [Tracker.export], [Storage.export],
    [Hw_model.observe]).  Layers keep plain counters while running; the
    registry is written once, after the run.

    Registration is idempotent — asking twice for the same name returns
    the same cell, so independent subsystems can share a metric — and
    conflicting re-registration (same name, different kind or label key)
    raises.  Families ([counter_family], [gauge_family]) attach one label
    key (e.g. [pid]) and materialise cells per label value on first use.

    A {!snapshot} is a point-in-time, immutable copy of every metric in
    registration order; the {!Sink} module renders snapshots as JSON
    Lines, Prometheus text exposition, or a human summary. *)

type t

val create : unit -> t

type kind = Counter_kind | Gauge_kind | Histogram_kind

val kind_to_string : kind -> string
(** ["counter"], ["gauge"], or ["histogram"] — the exposition names. *)

val counter : t -> ?help:string -> string -> Metric.Counter.t
val gauge : t -> ?help:string -> string -> Metric.Gauge.t
val histogram : t -> ?help:string -> string -> Metric.Histogram.t

val counter_family :
  t -> ?help:string -> label:string -> string -> string -> Metric.Counter.t
(** [counter_family t ~label name] is a lookup function from label value
    to counter cell; the family is registered even if no cell is ever
    materialised. *)

val add_counter : t -> ?help:string -> string -> int -> unit
(** [add_counter t name n] registers (or finds) the counter [name] and
    adds [n] — the one call an end-of-run export makes per total. *)

val set_gauge : t -> ?help:string -> string -> peak:int -> int -> unit
(** [set_gauge t name ~peak v] registers (or finds) the gauge [name],
    sets it to [peak] and then to [v], so the snapshot reports [v] with
    a high-water mark of at least [peak]. *)

(** {2 Snapshots} *)

type point =
  | P_counter of int
  | P_gauge of { value : float; peak : float }
  | P_histogram of {
      count : int;
      sum : int;
      vmax : int;
      buckets : (int * int) list;  (** (inclusive upper bound, count) *)
    }

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_points : ((string * string) list * point) list;
      (** one per label value, in first-use order; labels empty for
          plain metrics *)
}

val snapshot : t -> sample list
(** All metrics in registration order. *)

val find_counter : t -> string -> int option
(** Current value of a plain (unlabelled) counter, for assertions. *)

val find_gauge : t -> string -> float option
