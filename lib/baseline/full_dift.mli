(** Full register-level dynamic information-flow tracking — the
    conventional design PIFT avoids (Suh et al. / Raksha / TaintDroid
    style, §6), used here as ground truth and comparison point.

    Every instruction propagates taint from source operands to destination
    operands: loads copy memory taint into registers, ALU operations OR
    their source-register taints into the destination, and stores write
    the register taint back to byte-granular shadow memory (clean stores
    untaint).  Only direct flows are tracked, matching the paper's threat
    model (no control-flow/implicit propagation). *)

type t

val create : ?track_origins:bool -> unit -> t
(** Shadow memory is the production {!Pift_core.Store_flat} interval
    array, one per process (and per origin label).

    With [track_origins] (default off), every boolean shadow operation
    is mirrored over per-source-kind origin sets — registers carry label
    sets, shadow memory one taint set per label, stores performing exact
    strong updates (a store clears every origin its register does not
    carry).  These are the {e exact} origin sets PIFT's predicted sets
    are measured against ({!Pift_eval.Accuracy}); verdicts,
    {!propagations} and the boolean path are unchanged either way. *)

val taint_source : ?kind:string -> t -> pid:int -> Pift_util.Range.t -> unit
(** [kind] (default ["source"]) is the origin label recorded when
    origin tracking is on; ignored otherwise. *)

val observe : t -> Pift_trace.Event.t -> unit
val is_tainted : t -> pid:int -> Pift_util.Range.t -> bool
val reg_tainted : t -> pid:int -> Pift_arm.Reg.t -> bool
val tainted_bytes : t -> int
val tainted_ranges : t -> pid:int -> Pift_util.Range.t list

val origins_of : t -> pid:int -> Pift_util.Range.t -> string list
(** Source kinds whose data overlaps the range (sorted, exact); [[]]
    when origin tracking is off. *)

val reg_origins : t -> pid:int -> Pift_arm.Reg.t -> string list
(** Origin set currently carried by a register (sorted). *)

val propagations : t -> int
(** Number of per-instruction propagation operations performed — the cost
    PIFT's load/store-only design eliminates. *)
