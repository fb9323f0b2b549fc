(** Recording serialization — the paper's offline pipeline as an artefact.

    The paper's evaluation dumps gem5 instruction traces together with the
    source/sink address ranges printed by PIFT Native, and feeds both into
    the analysis code.  This module persists a {!Recorded.t} in two
    formats, autodetected on load:

    {2 Text ([PIFT-TRACE 1])}

    A simple line-oriented format so recordings can be archived, diffed,
    and re-analysed (including by external tools):

    {v
    PIFT-TRACE 1
    name <string>
    pid <int>
    bytecodes <int>
    L <seq> <k> <pid> <lo> <len>     # load event
    S <seq> <k> <pid> <lo> <len>     # store event
    O <seq> <k> <pid>                # non-memory event
    M <seq> SRC <kind> <lo> <len>    # source registration marker
    M <seq> SNK <kind> (<lo> <len>)* # sink check marker
    v}

    {2 Binary ([PIFTBIN1])}

    A compact {!Pift_util.Wire} record stream for large recordings:
    after the 8-byte magic and a varint header (name, pid, bytecodes),
    each record is a varint payload length followed by a tag byte and
    LEB128-varint fields.  Sequence numbers, instruction counters, and
    range starts are zigzag-coded deltas against the previous record, so
    the common consecutive-event case costs one byte per field.  The
    length prefix bounds every record: truncated or corrupt files are
    rejected with the failing record's number.

    In either format an event whose seq is below the previous event's is
    rejected at its line or record.  A marker's seq may be lower: it
    follows the event that reaches it.

    Either format round-trips loads, stores, and markers exactly —
    replaying a loaded recording produces byte-identical verdicts.
    Non-memory instructions are serialised as opaque [O] records: a
    loaded recording supports the PIFT analysis and all trace
    statistics, but not the register-level full-DIFT baseline (which
    needs instruction operands — run it live instead). *)

type format = Text | Binary

val format_to_string : format -> string

val save : ?format:format -> Recorded.t -> string -> unit
(** [save recording path] — writes the file, overwriting.  [format]
    defaults to [Text]. *)

val load : ?profile:Pift_obs.Profile.t -> string -> Recorded.t
(** {!open_reader} drained by {!pull} into a recording.  Raises [Failure] with a
    line number (text) or record number (binary) on malformed input.
    With [profile], the whole parse is attributed to a ["trace_io"]
    region, so decode cost shows up in the overhead breakdown next to
    tracker and store time. *)

val detect_format : string -> format
(** Peeks at the magic bytes; files too short to be binary (or with any
    other leading bytes) report [Text], whose parser owns the error. *)

(** {1 Streaming readers}

    Event-at-a-time ingestion over either format: the service engine
    runs many open traces without ever materialising one, so resident
    memory is one buffered chunk (binary) or one line (text) per
    tenant, whatever the trace length. *)

type reader
(** An open trace positioned after its header.  Not an unbounded
    resource cache: one file descriptor until {!close_reader}. *)

val open_reader : string -> reader
(** Autodetects the format and parses the header eagerly — a bad magic
    or truncated header raises the same positioned [Failure] as {!load}
    (and the file is closed).  Items then come one {!pull} (or
    {!read_item}) at a time. *)

type on_event =
  kind:int -> seq:int -> k:int -> pid:int -> lo:int -> hi:int -> unit
(** An event as the ints Algorithm 1 reads: [kind] is
    {!Pift_trace.Event.kind_load}, [kind_store] or [kind_other], and
    [lo]/[hi] the range bounds, already checked as {!Pift_util.Range}
    would ([0] for [kind_other]). *)

type on_marker = int -> Recorded.marker -> unit
(** A marker with its seq. *)

val pull : reader -> on_event:on_event -> on_marker:on_marker -> bool
(** The decoder — one per format, and every reader of a trace goes
    through it.  Decode the next item in file order (the replay
    interleaving the writers emit, {!Recorded.items}) and hand it to
    exactly one callback; [false] at a clean end of stream.  An event
    reaches [on_event] without any allocation, so callbacks built once
    per stream make decoding allocation-free but for markers.  Every
    framing, range and seq check runs before the callback: malformed or
    truncated input raises [Failure] with the line (text) or record
    (binary) position, and the items before it have already been
    delivered, so an ingester can account for partial streams. *)

val read_item : reader -> Recorded.item option
(** {!pull} into a {!Recorded.item}, [None] at the end: builds the
    event (with a synthetic instruction) or passes the marker on. *)

type header = { h_name : string; h_pid : int; h_bytecodes : int }

val reader_header : reader -> header

val close_reader : reader -> unit
(** Idempotent. *)

val with_reader : string -> (reader -> 'a) -> 'a
(** [with_reader path f] opens, applies [f], and always closes. *)
