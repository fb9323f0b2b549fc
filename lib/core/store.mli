(** Per-process taint state for the tracker.

    Algorithm 1 is defined over an abstract tainted-range state R; the
    software model backs it with one {!Store_backend.set} per process
    (exact, unbounded), while the hardware model backs it with the
    {!Storage} range cache (bounded, lossy under the drop policy).  The
    tracker is written once against this record of operations.

    The production store is [Flat]: a sorted interval array per
    process.  [Functional] and [Bytemap] exist as references for the
    differential tests and benchmarks; all three are proven equal to
    the {!Store_bytemap} oracle, so verdicts, stats and output are
    byte-for-byte the same whichever one runs. *)

type backend = Store_backend.backend =
  | Flat
      (** imperative sorted interval array ({!Store_flat}) — binary
          search lookups, in-place coalescing, no per-op allocation;
          the production store *)
  | Functional
      (** persistent {!Range_set} map — O(log n), allocating; the
          original reference implementation *)
  | Bytemap
      (** one bit per byte ({!Store_bytemap}); trivially correct oracle,
          for tests only *)

val backend_to_string : backend -> string
val all_backends : backend list

type t = {
  add : pid:int -> Pift_util.Range.t -> unit;
  remove : pid:int -> Pift_util.Range.t -> unit;
  overlaps : pid:int -> Pift_util.Range.t -> bool;
  tainted_bytes : unit -> int;  (** across all processes *)
  range_count : unit -> int;  (** across all processes *)
  ranges : pid:int -> Pift_util.Range.t list;
  release_pid : pid:int -> unit;
      (** Tenant eviction: drop every range held for the pid and fold
          its contribution out of [tainted_bytes] / [range_count].  A
          pid never seen is a no-op; a released pid behaves exactly like
          a fresh one. *)
  dump : unit -> (int * Pift_util.Range.t list) list;
      (** Snapshot extraction: every pid with live taint, sorted by pid,
          each with its canonical coalesced range list — deterministic
          across backends and Hashtbl orders.  Replaying [add] over a
          dump into a fresh store reproduces the original semantically
          (same [overlaps]/[ranges]/counters).  Raises [Failure] on
          {!of_storage} stores: the range cache is lossy, so persisting
          it would silently drop state. *)
}

val create : ?backend:backend -> unit -> t
(** Exact per-process taint state — the software reference the paper's
    trace-driven evaluation uses.  [backend] defaults to [Flat]; the
    others are test references.

    Read paths ([overlaps], [ranges]) are pure: querying a PID the
    store has never seen allocates nothing and leaves [range_count] /
    memory untouched.  [tainted_bytes] and [range_count] are O(1) —
    maintained per-op from the touched set's own counters, never by
    folding over every process. *)

val of_storage : Storage.t -> t
(** State held in a hardware range cache; behaviour (and possible false
    negatives) follow the cache's eviction policy. *)

val with_metrics : Pift_obs.Registry.t -> t -> t
(** Same backend, with [pift_store_*] add/remove/merge counters and a
    range-count gauge updated on every mutation.  Merge detection reads
    the (O(1), incrementally tracked) range count around each
    insertion, so wrap only when observing. *)
