(** Runtime-overhead characterisation on the LGRoot trace — Figs. 14–19.

    All functions replay a single recording, so the whole §5.2 study runs
    off one execution of the malware. *)

type point = {
  ni : int;
  nt : int;
  untaint : bool;
  max_tainted_bytes : int;  (** Fig. 14 / 15 / 18 metric *)
  max_ranges : int;  (** Fig. 17 / 19 metric *)
  taint_ops : int;
  untaint_ops : int;  (** Fig. 16 metric: taint + untaint over time *)
}

val measure : ?untaint:bool -> Recorded.t -> ni:int -> nt:int -> point

val grid :
  ?nis:int list ->
  ?nts:int list ->
  ?rings:Pift_obs.Flight.t array ->
  ?jobs:int ->
  Recorded.t ->
  point list
(** Fig. 14 and Fig. 17 sweeps (defaults NI=1..20 × NT=1..10).  [jobs]
    (default 1) replays grid points on a [Pift_par] domain pool; the
    point list is identical for every [jobs] value.  [rings] (one per
    worker slot) stamps a ["cell(ni,nt)"] span plus
    ["max_tainted_bytes"]/["max_ranges"] samples per point. *)

val series :
  Recorded.t ->
  ni:int ->
  nt:int ->
  (int * int) list * (int * int) list
(** Fig. 15 and Fig. 16: (tainted-bytes-over-time,
    cumulative-operations-over-time) samples for one parameter pair. *)

val untaint_effect :
  ?rings:Pift_obs.Flight.t array ->
  ?jobs:int ->
  Recorded.t ->
  nis:int list ->
  nt:int ->
  (int * point * point) list
(** Fig. 18/19: per NI, the (untainting-on, untainting-off) pair.
    [jobs] and [rings] as in {!grid} (span names
    ["untaint-on(ni,nt)"]/["untaint-off(ni,nt)"]). *)

val render_grid :
  title:string ->
  metric:(point -> int) ->
  point list ->
  Format.formatter ->
  unit ->
  unit

val render_series :
  title:string ->
  log_scale:bool ->
  (string * (int * int) list) list ->
  Format.formatter ->
  unit ->
  unit
