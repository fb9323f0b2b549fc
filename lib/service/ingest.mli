(** Ingest front: turn recordings and trace files into tenant sources
    and feed them to the engine, each on the shard that owns it.

    A {!source} binds one trace stream to one engine pid.  Pids come
    from {!tenant_pid}, which places tenant [i] at the start of its own
    [pid_range] block so the engine's range partitioning spreads
    tenants round-robin across shards.  Events are remapped into the
    tenant's block preserving their offset from the recorded main pid,
    so forked child processes stay distinct. *)

type source = {
  src_name : string;
  src_path : string option;  (** trace file, [None] for in-memory *)
  src_pid : int;  (** pid the engine sees *)
  src_orig_pid : int;  (** pid recorded in the trace *)
  src_next : unit -> Pift_eval.Recorded.item option;
      (** the stream as items, for {!merge} *)
  src_pull :
    on_event:Pift_eval.Trace_io.on_event ->
    on_marker:Pift_eval.Trace_io.on_marker ->
    bool;
      (** the same stream through {!Pift_eval.Trace_io.pull}'s
          interface: what {!run} and {!skip} read *)
  src_close : unit -> unit;
  mutable src_emitted : int;  (** read via {!cursor} *)
}

val tenant_pid : ?pid_range:int -> int -> int
(** [(i + 1) * pid_range] (default [pid_range] matches
    {!Engine.create}): the engine pid for tenant index [i >= 0]. *)

val pull_of_next :
  (unit -> Pift_eval.Recorded.item option) ->
  on_event:Pift_eval.Trace_io.on_event ->
  on_marker:Pift_eval.Trace_io.on_marker ->
  bool
(** An item stream as a [src_pull]: each event is unpacked into its
    fields. *)

val of_recorded : pid:int -> Pift_eval.Recorded.t -> source
(** In-memory recording as a source (no close needed). *)

val of_file : pid:int -> string -> source
(** Open [path] with {!Pift_eval.Trace_io.open_reader} — text or binary,
    streamed event-at-a-time, never materialised: [src_pull] is the
    reader's {!Pift_eval.Trace_io.pull} and [src_next] its
    {!Pift_eval.Trace_io.read_item}.  {!close} (or {!run})
    releases the channel. *)

val close : source -> unit

val to_engine_item : source -> Pift_eval.Recorded.item -> Engine.item
(** Remap one recorded item onto the source's engine pid, as an in-band
    {!Engine.item}.  {!run} does not use it. *)

val merge : source list -> Engine.stream
(** Kept for the benchmark harness's engine leg and the in-band tests;
    no production path calls it ({!run} needs no global order).
    Deterministic interleave: always emit the head with the smallest
    [(seq, source index)] — ties on seq go to the earlier-listed
    source.  Per-source item order is preserved, so each tenant sees
    exactly its own stream in order; the cross-tenant schedule is fixed
    by the inputs alone, never by thread timing.

    The heads sit in a binary min-heap keyed on [(seq, source index)],
    so a pull costs O(log sources).  Each source holds at most one
    prefetched head: the first pull reads every source once in list
    order, and a source whose head was emitted is refilled lazily, at
    the next pull.  A read that raises propagates from the pull that
    made it and leaves the merge as it was. *)

val cursor : source -> int
(** Ingest cursor: items processed so far (plus any {!skip}ped on
    resume).  {!run} reads nothing ahead, so whenever the engine is
    idle the cursor names exactly the processed prefix.  ({!merge}
    counts at emission and holds one read-ahead head per source.)
    Recorded per source in every snapshot. *)

val skip : source -> int -> unit
(** Resume from a snapshot: discard the first [n] items of a freshly
    opened source (the prefix a previous run consumed) and set its
    cursor to [n].  Fails if the source ends early — the trace changed
    since the snapshot was taken. *)

val run :
  ?segment:int -> ?on_idle:(unit -> unit) -> Engine.t -> source list -> unit
(** Register each source's tenant (named after the trace), then let
    every shard process its own sources: the sources whose pid
    {!Engine.shard_of} maps to shard [i] keep their list order, and
    slot [i] decodes and feeds them one after another on its own domain
    (see {!Engine.run_shards}).  Each source's [src_pull] hands its
    events to {!Engine.feed_event} as plain ints, through callbacks
    built once per source and segment: no item, event or option is
    built per event, and there is no global merge and no queue.
    Sources are closed on the way out, also on failure.  An event whose
    remapped pid leaves its tenant's pid block fails the run with an
    error naming the source and the item number.

    With [segment:n], each shard processes at most [n] items per
    segment; then all shards join, the engine is fully idle, and
    [on_idle] is called — the snapshot hook.  Segments repeat until
    every shard's sources have ended with budget to spare, and [on_idle]
    also runs after that final (possibly short or empty) segment, so a
    snapshot of the completed state always exists; without [segment]
    it runs once at end of stream.  At one shard this gives the same
    segments as one global budget of [n].  Cursors observed inside
    [on_idle] name exactly the processed prefix of every source. *)
