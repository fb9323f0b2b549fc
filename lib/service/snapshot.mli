(** Durable engine state: the versioned [PIFTSNAP1] binary snapshot
    format.

    A snapshot is a manifest record (engine config: shard count,
    pid-block width, store name, origins mode, policy, and expected
    record counts), one record per ingest source (trace path, the
    tenant pid block it maps to, and the ingest {e cursor} — items the
    engine had fully processed when the snapshot was taken), and one
    record per tenant ({!Engine.tenant_persisted}: name, verdict log,
    and the complete tracker stack — canonical store intervals,
    windows, stats and peaks, provenance origin sets).

    The coding is the same varint/zigzag layer as [Trace_io]'s binary
    trace format ({!Pift_util.Wire}), with the same defensive
    discipline: length-prefixed records, capped payloads and varints,
    and every corrupt byte surfacing as a positioned
    [Failure "Snapshot: record N: ..."] — never a bare exception.
    {!write} is atomic (temp file + rename), so a crash during a
    snapshot cadence leaves the previous snapshot intact: recovery
    always finds a complete file.

    Restore contract: an engine built from the manifest's policy /
    origins mode / pid_range (the shard count is free — see
    {!Engine.restore_tenant}) with every tenant restored and every
    source re-opened and {!Ingest.skip}ped to its cursor resumes to
    byte-identical verdicts, origins, and stats versus the
    uninterrupted run. *)

type manifest = {
  m_shards : int;  (** shard count at snapshot time (informational) *)
  m_pid_range : int;
  m_with_origins : bool;
  m_policy : Pift_core.Policy.t;
  m_sources : int;  (** expected source records *)
  m_tenants : int;  (** expected tenant records *)
}

type source_entry = {
  se_name : string;
  se_path : string;  (** [""] for in-memory sources *)
  se_pid : int;  (** assigned engine pid (tenant block) *)
  se_orig_pid : int;  (** pid recorded in the trace *)
  se_cursor : int;  (** items fully processed at snapshot time *)
}

type t = {
  manifest : manifest;
  sources : source_entry list;
  tenants : Engine.tenant_persisted list;  (** sorted by pid *)
}

type record =
  | R_manifest of manifest
  | R_source of source_entry
  | R_tenant of Engine.tenant_persisted

(** {1 Files} *)

val write : string -> t -> unit
(** Atomic: encode to [path ^ ".tmp"], then rename over [path]. *)

val iter : string -> (record -> unit) -> unit
(** Stream records in file order.  On a corrupt file, every intact
    prefix record is delivered to [f] before the positioned
    [Failure "Snapshot: record N: ..."] raises. *)

val load : string -> t
(** {!iter} plus structure validation: the manifest must be record 1,
    and the source/tenant record counts must match it — truncation at
    a record boundary (invisible to the streaming reader) fails here. *)

(** {1 Engine glue}

    Engine-idle only, like the rest of the admin surface. *)

val source_entries : Ingest.source list -> source_entry list
(** Capture each source's path, pid mapping and current cursor. *)

val of_engine : ?sources:source_entry list -> Engine.t -> t
(** Snapshot every resident tenant plus the engine config manifest. *)

val save : ?sources:source_entry list -> Engine.t -> string -> unit
(** [write path (of_engine ?sources eng)]. *)

val restore_tenants : Engine.t -> t -> unit
(** Restore every tenant record into [eng] via
    {!Engine.restore_tenant}.  Raises [Invalid_argument] if the
    engine's policy, origins mode, or pid_range disagree with
    the manifest — a mismatched restore would silently diverge from
    the uninterrupted run, which a durability layer must never do.
    The shard count may differ. *)
