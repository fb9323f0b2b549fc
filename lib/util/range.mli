(** Inclusive address ranges [\[lo, hi\]] over a flat byte-addressed space.

    Ranges are the currency of the whole system: memory accesses resolve to
    ranges, the PIFT taint state is a set of ranges, and the hardware taint
    storage caches ranges.  Addresses are plain OCaml [int]s interpreted as
    unsigned 32-bit values. *)

type t = private { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi] is the range [\[lo, hi\]].  Raises [Invalid_argument] when
    [hi < lo] or [lo < 0]. *)

val of_len : int -> int -> t
(** [of_len addr len] is the [len]-byte range starting at [addr].
    Raises [Invalid_argument] when [len <= 0]. *)

val hi_of_len : int -> int -> int
(** [hi_of_len addr len] is [hi (of_len addr len)], with the same checks
    and messages, without building the range: the decoders validate an
    access this way and carry it on as two ints. *)

val byte : int -> t
(** [byte a] is the single-byte range [\[a, a\]]. *)

val length : t -> int
(** Number of bytes covered (at least 1). *)

val lo : t -> int
val hi : t -> int

val overlaps : t -> t -> bool
(** The paper's hit condition: [max(si, sL) <= min(ei, eL)]. *)

val adjacent : t -> t -> bool
(** [adjacent a b] holds when the ranges touch without overlapping, e.g.
    [\[0,3\]] and [\[4,7\]]. *)

val contains : t -> int -> bool

val covers : t -> t -> bool
(** [covers a b] holds when [b] lies entirely inside [a]. *)

val union : t -> t -> t
(** Union of two overlapping-or-adjacent ranges.  Raises
    [Invalid_argument] when they are disjoint and non-adjacent. *)

val inter : t -> t -> t option
(** Overlapping part, if any. *)

val subtract : t -> t -> t list
(** [subtract a b] is what remains of [a] after removing [b]: zero, one or
    two ranges, in increasing address order. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
