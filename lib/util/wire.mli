(** Binary record streams: the one codec behind the trace format
    ([Pift_eval.Trace_io], magic [PIFTBIN1]) and the service snapshot
    format ([Pift_service.Snapshot], magic [PIFTSNAP1]).

    Both files are a magic, an unframed header, then records until EOF:

    {v
    <magic> <header>
    <varint payload-length> <payload>   repeated until EOF
    payload := tag byte, then fields
    v}

    This module owns that framing and all of its error text: the magic
    check, the length prefix, the empty / implausible / truncated /
    trailing-bytes checks and the field cursor's failures.  Every
    failure is [Failure "<format>: record N: <msg>"], where [N] is the
    1-based record being decoded (0 for the magic and header).  Each
    format only names its tags and decodes its fields.

    Field coding: LEB128 varints (7 bits per byte, high bit =
    continuation, at most 9 bytes), zigzag svarints, bool bytes,
    length-prefixed strings, and ranges as [svarint lo-delta, varint
    length]. *)

val add_varint : Buffer.t -> int -> unit
(** Append a non-negative int as an LEB128 varint. *)

val zigzag : int -> int
(** Map a signed int to a non-negative code: 0, -1, 1, -2 → 0, 1, 2, 3. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val add_svarint : Buffer.t -> int -> unit
(** [add_varint buf (zigzag v)] — signed values, small magnitudes stay
    one byte. *)

val add_bool : Buffer.t -> bool -> unit
(** One byte, 0 or 1. *)

val add_string : Buffer.t -> string -> unit
(** Length-prefixed raw bytes: varint length, then the bytes. *)

val add_range : Buffer.t -> int -> Range.t -> unit
(** [add_range buf base r]: [Range.lo r - base] as an svarint, then the
    length as a varint. *)

module Writer : sig
  type t

  val create : out_channel -> string -> t
  (** Write the magic and return a writer over [oc].  The caller keeps
      ownership of the channel. *)

  val buf : t -> Buffer.t
  (** The bytes under construction, for the [add_*] coders. *)

  val header : t -> unit
  (** Write {!buf} as it is (the unframed header) and clear it. *)

  val record : t -> unit
  (** Write {!buf} as one record — its varint length, then the bytes —
      and clear it. *)
end

module Reader : sig
  type t
  (** A record stream over a channel, read through one chunk buffer.
      A record's payload is decoded in place from that buffer. *)

  val create : format:string -> magic:string -> in_channel -> t
  (** Check [magic] at the channel's position (["bad magic"], or
      ["bad magic (truncated)"] when the stream is shorter) and return a
      reader at the header.  [format] prefixes every error.  The caller
      keeps ownership of the channel. *)

  val fail : t -> string -> 'a
  (** Raise [Failure "<format>: record N: <msg>"] at the current
      record. *)

  (** {2 Header}

      Fields between the magic and the first record, read straight off
      the stream. *)

  val header_byte : t -> int
  (** Next byte, or [-1] at end of stream. *)

  val header_varint : t -> int
  (** ["truncated varint"] or ["varint overflow"] on bad input. *)

  val header_string : t -> string -> string
  (** [header_string r what]: a length-prefixed string; fails with
      ["implausible <what> length"] or ["truncated header"]. *)

  (** {2 Records} *)

  val next : t -> int
  (** Frame the next record and return its tag, with the cursor on the
      first field; [-1] at a clean end of stream (EOF exactly at a
      record boundary).  Fails on an empty, implausibly long or
      truncated record. *)

  val finish : t -> unit
  (** Fail with ["trailing bytes in record"] unless every payload byte
      was decoded. *)

  (** {2 Field cursor}

      Reads within the current payload; running past its end fails with
      ["truncated record payload"]. *)

  val varint : t -> int
  val svarint : t -> int

  val bool : t -> bool
  (** ["bad boolean byte N"] on anything but 0 or 1. *)

  val string : t -> string -> string
  (** [string r what]: a length-prefixed string; ["truncated <what>"]
      when it overruns the payload. *)

  val count : t -> string -> int
  (** [count r what]: a varint element count, checked against the bytes
      left in the payload (every element takes at least one) so a
      corrupt count cannot allocate without bound; ["implausible <what>
      count"] otherwise. *)

  val range : t -> int -> Range.t
  (** [range r base]: the inverse of {!add_range}; a bad length fails
      with {!Range.of_len}'s message. *)

  val hi_of_len : t -> int -> int -> int
  (** [hi_of_len r lo len]: {!Range.hi_of_len} failing at the current
      record — {!range}'s check, for a decoder that reads [lo] and [len]
      itself and keeps them unboxed. *)
end
