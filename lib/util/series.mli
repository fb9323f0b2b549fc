(** Append-only time series of [(time, value)] samples.

    Records metric evolution over the instruction stream (paper Figs. 15
    and 16: tainted bytes and cumulative operations vs. instruction
    index). *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

val record : t -> time:int -> value:int -> unit
(** Append a sample.  Times must be non-decreasing. *)

val length : t -> int
val last_value : t -> int option
val max_value : t -> int option
val to_list : t -> (int * int) list

val value_at : t -> int -> int
(** [value_at s t] is the most recent value recorded at or before time [t];
    0 if none. *)

val downsample : t -> int -> (int * int) list
(** [downsample s n] picks at most [n] samples evenly spread over the
    recorded time span (always including the last sample). *)
