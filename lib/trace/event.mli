(** One executed instruction, as observed by the PIFT front-end logic.

    This is the paper's Fig. 5 interface between CPU and PIFT hardware
    module: for every instruction the front end supplies the
    process-specific ID, the process-specific instruction counter, the
    access type, and the resolved address range.  We additionally carry the
    instruction itself so the full-DIFT baseline (which needs register
    semantics) can consume the same stream. *)

type access =
  | Load of Pift_util.Range.t
  | Store of Pift_util.Range.t
  | Other

type t = {
  seq : int;  (** global instruction sequence number *)
  k : int;  (** per-process instruction counter (Algorithm 1's [k]) *)
  pid : int;
  insn : Pift_arm.Insn.t;
  access : access;
}

(** {1 Unboxed events}

    Algorithm 1 reads four fields of an event: its access kind, [k],
    pid and address range.  The trace decoders hand those over as plain
    ints ([~kind ~seq ~k ~pid ~lo ~hi]) instead of building a [t]; the
    kind is one of these, and [lo]/[hi] are 0 for {!kind_other}. *)

val kind_load : int
val kind_store : int
val kind_other : int

val is_load : t -> bool
val is_store : t -> bool

val range : t -> Pift_util.Range.t option
(** Address range of a memory access, [None] for [Other]. *)

val pp : Format.formatter -> t -> unit
