(* The record-stream codec shared by the trace serialisation
   (Pift_eval.Trace_io, magic PIFTBIN1) and the service snapshot format
   (Pift_service.Snapshot, magic PIFTSNAP1).  Framing, field coding and
   every framing error live here; the formats only name their tags and
   fields.  Corrupt input must not make a reader allocate or loop
   without bound: payloads are capped, varints are capped at 9 bytes
   (63 value bits) and counts are checked against the payload. *)

let max_record_payload = 1 lsl 24

let add_varint buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let add_svarint buf v = add_varint buf (zigzag v)
let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_range buf base r =
  add_svarint buf (Range.lo r - base);
  add_varint buf (Range.length r)

module Writer = struct
  type t = { oc : out_channel; buf : Buffer.t; prefix : Buffer.t }

  let create oc magic =
    output_string oc magic;
    { oc; buf = Buffer.create 256; prefix = Buffer.create 8 }

  let buf w = w.buf

  let header w =
    Buffer.output_buffer w.oc w.buf;
    Buffer.clear w.buf

  let record w =
    Buffer.clear w.prefix;
    add_varint w.prefix (Buffer.length w.buf);
    Buffer.output_buffer w.oc w.prefix;
    header w
end

module Reader = struct
  (* Records average tens of bytes, so decoding straight from a large
     refill buffer (grown in place for oversized records) beats
     per-field channel calls by a wide margin.  [next] pins a whole
     payload in [buf] between [pos] and [limit]; the field cursor reads
     it in place.  The decoders are top-level functions and failures
     format their message only when they fire, so decoding a record
     allocates nothing but what the format builds from it. *)
  type t = {
    ic : in_channel;
    format : string;
    mutable buf : Bytes.t;
    mutable lo : int;  (* next unread byte *)
    mutable hi : int;  (* end of valid bytes *)
    mutable eof : bool;
    mutable record : int;  (* record being decoded, 0 in the header *)
    mutable pos : int;  (* next payload byte *)
    mutable limit : int;  (* end of the current payload *)
  }

  let fail r msg =
    failwith (Printf.sprintf "%s: record %d: %s" r.format r.record msg)

  let refill r =
    if not r.eof then begin
      let live = r.hi - r.lo in
      if live > 0 && r.lo > 0 then Bytes.blit r.buf r.lo r.buf 0 live;
      r.lo <- 0;
      r.hi <- live;
      let n = input r.ic r.buf r.hi (Bytes.length r.buf - r.hi) in
      if n = 0 then r.eof <- true else r.hi <- r.hi + n
    end

  (* Whether [n] contiguous bytes can be buffered. *)
  let has r n =
    if Bytes.length r.buf < n then begin
      let grown = Bytes.create (max n (2 * Bytes.length r.buf)) in
      Bytes.blit r.buf r.lo grown 0 (r.hi - r.lo);
      r.buf <- grown;
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    while r.hi - r.lo < n && not r.eof do
      refill r
    done;
    r.hi - r.lo >= n

  let take r n =
    let s = Bytes.sub_string r.buf r.lo n in
    r.lo <- r.lo + n;
    s

  let create ~format ~magic ic =
    let r =
      {
        ic;
        format;
        buf = Bytes.create 65536;
        lo = 0;
        hi = 0;
        eof = false;
        record = 0;
        pos = 0;
        limit = 0;
      }
    in
    let n = String.length magic in
    if not (has r n) then fail r "bad magic (truncated)";
    if not (String.equal (take r n) magic) then fail r "bad magic";
    r

  let header_byte r =
    if r.lo >= r.hi then refill r;
    if r.lo >= r.hi then -1
    else begin
      let b = Char.code (Bytes.unsafe_get r.buf r.lo) in
      r.lo <- r.lo + 1;
      b
    end

  (* Continuation bytes of a stream varint whose low [shift] bits are
     [acc]. *)
  let rec stream_varint_rest r shift acc =
    match header_byte r with
    | -1 -> fail r "truncated varint"
    | b ->
        if shift > 56 && b > 0x7f then fail r "varint overflow"
        else begin
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b < 0x80 then acc else stream_varint_rest r (shift + 7) acc
        end

  let header_varint r =
    match header_byte r with
    | -1 -> fail r "truncated varint"
    | b -> if b < 0x80 then b else stream_varint_rest r 7 (b land 0x7f)

  let header_string r what =
    let n = header_varint r in
    if n < 0 || n > max_record_payload then
      fail r (Printf.sprintf "implausible %s length" what);
    if not (has r n) then fail r "truncated header";
    take r n

  (* A record's payload length.  Raises [End_of_file] when the stream
     ends cleanly where a record would start. *)
  let length r =
    match header_byte r with
    | -1 -> raise End_of_file
    | b -> if b < 0x80 then b else stream_varint_rest r 7 (b land 0x7f)

  (* Pin a payload of [len] bytes starting at [r.lo] and return its
     tag. *)
  let[@inline] frame r len =
    let lo = r.lo in
    r.pos <- lo + 1;
    r.limit <- lo + len;
    r.lo <- lo + len;
    Char.code (Bytes.unsafe_get r.buf lo)

  let next_slow r =
    match length r with
    | exception End_of_file ->
        r.record <- r.record - 1;
        -1
    | len ->
        if len <= 0 then fail r "empty record";
        if len > max_record_payload then fail r "implausible record length";
        if not (has r len) then
          fail r (Printf.sprintf "truncated record (%d payload bytes)" len);
        frame r len

  (* Almost every record is shorter than 128 bytes and already
     buffered: its one-byte length prefix and payload are read in
     place, without a call. *)
  let[@inline] next r =
    r.record <- r.record + 1;
    let lo = r.lo in
    if lo < r.hi then begin
      let len = Char.code (Bytes.unsafe_get r.buf lo) in
      if len > 0 && len < 0x80 && lo + 1 + len <= r.hi then begin
        r.lo <- lo + 1;
        frame r len
      end
      else next_slow r
    end
    else next_slow r

  let[@inline] finish r =
    if r.pos <> r.limit then fail r "trailing bytes in record"

  let rec varint_rest r shift acc =
    if r.pos >= r.limit then fail r "truncated record payload"
    else begin
      let b = Char.code (Bytes.unsafe_get r.buf r.pos) in
      r.pos <- r.pos + 1;
      if shift > 56 && b > 0x7f then fail r "varint overflow"
      else begin
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then acc else varint_rest r (shift + 7) acc
      end
    end

  (* Nearly every field is one byte, read here without a call. *)
  let[@inline] varint r =
    let pos = r.pos in
    if pos < r.limit then begin
      let b = Char.code (Bytes.unsafe_get r.buf pos) in
      if b < 0x80 then begin
        r.pos <- pos + 1;
        b
      end
      else varint_rest r 0 0
    end
    else varint_rest r 0 0

  let[@inline] svarint r = unzigzag (varint r)

  let bool r =
    if r.pos >= r.limit then fail r "truncated record payload";
    let b = Char.code (Bytes.unsafe_get r.buf r.pos) in
    r.pos <- r.pos + 1;
    match b with
    | 0 -> false
    | 1 -> true
    | b -> fail r (Printf.sprintf "bad boolean byte %d" b)

  let string r what =
    let n = varint r in
    if n < 0 || r.pos + n > r.limit then fail r ("truncated " ^ what);
    let s = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let count r what =
    let n = varint r in
    if n < 0 || n > r.limit - r.pos + 1 then
      fail r (Printf.sprintf "implausible %s count" what);
    n

  let hi_of_len r lo len =
    try Range.hi_of_len lo len with Invalid_argument msg -> fail r msg

  let range r base =
    let lo = base + svarint r in
    let len = varint r in
    Range.make lo (hi_of_len r lo len)
end
