(** Imperative flat taint set — the production [Flat] store of {!Store}.

    A sorted interval array (parallel [lo]/[hi] int arrays) holding the
    canonical maximal disjoint closed ranges, exactly like {!Range_set}
    but mutable and allocation-free on the hot path: overlap queries are
    a binary search over a flat array, insertion coalesces in place, and
    removal splices without tombstones.  Capacity grows by amortised
    doubling.  Semantically byte-for-byte equivalent to {!Range_set} —
    the property suite in [test/test_store.ml] proves it against the
    {!Store_bytemap} oracle. *)

type t

val create : unit -> t

val add : t -> Pift_util.Range.t -> unit
(** Insert, merging with every overlapping-or-adjacent entry. O(log n)
    search + splice (O(n) worst-case move, amortised by coalescing). *)

val remove : t -> Pift_util.Range.t -> unit
(** Untaint, trimming or splitting partially covered entries in place. *)

val mem_overlap : t -> Pift_util.Range.t -> bool
(** O(log n) binary search. *)

val cardinal : t -> int
(** O(1). *)

val total_bytes : t -> int
(** O(1). *)

val ranges : t -> Pift_util.Range.t list
(** Maximal ranges in increasing address order. *)
