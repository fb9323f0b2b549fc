(** The three primitive instruments behind the {!Registry}.

    Counters and gauges are single mutable cells so the hot-path cost of
    an increment is one write; histograms are log2-bucketed so [observe]
    is a constant-time bucket increment with no allocation. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit

  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative increment — counters are
      monotone. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t

  val set : t -> int -> unit
  val set_float : t -> float -> unit

  val value : t -> float

  val peak : t -> float
  (** Highest value ever set (the registry snapshots both). *)
end

module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> int -> unit
  (** O(1): increments the log2 bucket of the observation. *)

  val bucket_of : int -> int
  (** Bucket index: 0 for values <= 0; [b >= 1] covers
      [\[2^(b-1), 2^b - 1\]]. *)

  val lower_bound : int -> int
  val upper_bound : int -> int
  (** Inclusive value bounds of a bucket index. *)

  val count : t -> int
  val sum : t -> int
  val max_value : t -> int
  val mean : t -> float

  val nonzero_buckets : t -> (int * int) list
  (** [(upper_bound, count)] for every non-empty bucket, lowest first. *)
end
