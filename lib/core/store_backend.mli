(** Single-set taint stores, beneath {!Store} (per-process software
    state), {!Provenance} (per-label sets) and the full-DIFT baseline.

    One [set] is one process's tainted-range state in the canonical
    closed-range form: maximal, pairwise disjoint, non-adjacent ranges.
    [Flat] is the production store; [Functional] and [Bytemap] are
    reference implementations for tests and benchmarks.  All three are
    semantically identical — the differential property suite
    ([test/test_store.ml]) proves [Flat] and [Functional] equal to the
    [Bytemap] oracle — so a reference can never change a verdict, a
    stat, or a byte of output. *)

type backend =
  | Flat  (** sorted interval array, imperative ({!Store_flat}) *)
  | Functional  (** persistent {!Range_set} — the original reference *)
  | Bytemap  (** one bit per byte; testing oracle ({!Store_bytemap}) *)

val backend_to_string : backend -> string
val all_backends : backend list

type set = {
  s_add : Pift_util.Range.t -> unit;
  s_remove : Pift_util.Range.t -> unit;
  s_overlaps : Pift_util.Range.t -> bool;
  s_bytes : unit -> int;
  s_count : unit -> int;
  s_ranges : unit -> Pift_util.Range.t list;  (** ascending, canonical *)
}

val make : backend -> set
(** A fresh empty set of the given backend. *)
