module Range = Pift_util.Range
module Wire = Pift_util.Wire
module Event = Pift_trace.Event
module Trace = Pift_trace.Trace
module Insn = Pift_arm.Insn
module Reg = Pift_arm.Reg

let magic = "PIFT-TRACE 1"
let binary_magic = "PIFTBIN1"

type format = Text | Binary

let format_to_string = function Text -> "text" | Binary -> "binary"

(* Marker kinds are user-controlled strings embedded in a
   space-separated record format.  A kind containing a space used to
   serialize fine and then fail on load — "unrecognised record" for SRC
   (too many fields), a silently truncated kind for SNK (the tail parsed
   as ranges).  Percent-escape the delimiters at write time instead;
   kinds without them round-trip byte-identically, so old traces still
   load. *)
let escape_kind kind =
  let needs_escape = function ' ' | '%' | '\n' | '\r' -> true | _ -> false in
  if String.exists needs_escape kind then begin
    let buf = Buffer.create (String.length kind + 8) in
    String.iter
      (fun c ->
        if needs_escape c then
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      kind;
    Buffer.contents buf
  end
  else kind

let write_range oc r =
  Printf.fprintf oc " %d %d" (Range.lo r) (Range.length r)

(* Both writers walk [Recorded.items]: events and markers in stream
   order, each marker after the event that reaches its seq. *)
let iter_items t f =
  let next = Recorded.items t in
  let rec go () =
    match next () with
    | Some item ->
        f item;
        go ()
    | None -> ()
  in
  go ()

let to_channel (t : Recorded.t) oc =
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "name %s\n" t.Recorded.name;
  Printf.fprintf oc "pid %d\n" t.Recorded.pid;
  Printf.fprintf oc "bytecodes %d\n" t.Recorded.bytecodes;
  iter_items t (function
    | Recorded.Item_event e -> (
        match e.Event.access with
        | Event.Load r ->
            Printf.fprintf oc "L %d %d %d" e.seq e.k e.pid;
            write_range oc r;
            output_char oc '\n'
        | Event.Store r ->
            Printf.fprintf oc "S %d %d %d" e.seq e.k e.pid;
            write_range oc r;
            output_char oc '\n'
        | Event.Other -> Printf.fprintf oc "O %d %d %d\n" e.seq e.k e.pid)
    | Recorded.Item_marker (mseq, Recorded.Source { kind; range }) ->
        Printf.fprintf oc "M %d SRC %s" mseq (escape_kind kind);
        write_range oc range;
        output_char oc '\n'
    | Recorded.Item_marker (mseq, Recorded.Sink { kind; ranges }) ->
        Printf.fprintf oc "M %d SNK %s" mseq (escape_kind kind);
        List.iter (write_range oc) ranges;
        output_char oc '\n')

(* --- binary format ------------------------------------------------------ *)

(* [Pift_util.Wire] record stream after the magic and an unframed
   header (name as a string, pid, bytecodes).  Record payloads:

   {v
   tag byte, then fields
     0 load    dseq dk pid dlo len
     1 store   dseq dk pid dlo len
     2 other   dseq dk pid
     3 source  dseq kind(str) dlo len
     4 sink    dseq kind(str) nranges (dlo len)*
   v}

   [dseq]/[dk]/[dlo] are zigzag-coded deltas against the previous
   record's seq / k / range start (in stream order), so consecutive
   events cost 1-byte fields almost everywhere.  Kinds are raw bytes
   behind a length — no escaping. *)

let tag_load = 0
let tag_store = 1
let tag_other = 2
let tag_source = 3
let tag_sink = 4

let to_channel_binary (t : Recorded.t) oc =
  let w = Wire.Writer.create oc binary_magic in
  let b = Wire.Writer.buf w in
  Wire.add_string b t.Recorded.name;
  Wire.add_varint b t.Recorded.pid;
  Wire.add_varint b t.Recorded.bytecodes;
  Wire.Writer.header w;
  let prev_seq = ref 0 and prev_k = ref 0 and prev_lo = ref 0 in
  let add_head tag seq =
    Buffer.add_char b (Char.chr tag);
    Wire.add_svarint b (seq - !prev_seq);
    prev_seq := seq
  in
  let add_range r =
    Wire.add_range b !prev_lo r;
    prev_lo := Range.lo r
  in
  iter_items t (fun item ->
      (match item with
      | Recorded.Item_event e ->
          add_head
            (match e.Event.access with
            | Event.Load _ -> tag_load
            | Event.Store _ -> tag_store
            | Event.Other -> tag_other)
            e.Event.seq;
          Wire.add_svarint b (e.Event.k - !prev_k);
          prev_k := e.Event.k;
          Wire.add_varint b e.Event.pid;
          (match e.Event.access with
          | Event.Load r | Event.Store r -> add_range r
          | Event.Other -> ())
      | Recorded.Item_marker (mseq, Recorded.Source { kind; range }) ->
          add_head tag_source mseq;
          Wire.add_string b kind;
          add_range range
      | Recorded.Item_marker (mseq, Recorded.Sink { kind; ranges }) ->
          add_head tag_sink mseq;
          Wire.add_string b kind;
          Wire.add_varint b (List.length ranges);
          List.iter add_range ranges);
      Wire.Writer.record w)

let save ?(format = Text) t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      match format with
      | Text -> to_channel t oc
      | Binary -> to_channel_binary t oc)

(* --- parsing ------------------------------------------------------------- *)

let fail_line n msg = failwith (Printf.sprintf "Trace_io: line %d: %s" n msg)

(* Events must not go back in time: the tracker's series would reject
   them later with no position.  Markers are exempt — a marker follows
   the event that reaches its seq, so its seq may be lower. *)
let backwards seq prev =
  Printf.sprintf "event seq %d goes backwards (previous event %d)" seq prev

let parse_int n s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail_line n ("not an integer: " ^ s)

(* A corrupt length or address must surface as a positioned Trace_io
   error, not escape as a bare [Invalid_argument "Range.of_len"] from
   deep inside the parser.  The length is parsed before the start. *)
let hi_of_len n lo len =
  try Range.hi_of_len lo len with Invalid_argument msg -> fail_line n msg

let range_of_len n lo len =
  let len = parse_int n len in
  let lo = parse_int n lo in
  Range.make lo (hi_of_len n lo len)

let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let unescape_kind n s =
  if not (String.contains s '%') then s
  else begin
    let len = String.length s in
    let buf = Buffer.create len in
    let i = ref 0 in
    while !i < len do
      if s.[!i] <> '%' then begin
        Buffer.add_char buf s.[!i];
        incr i
      end
      else begin
        if !i + 2 >= len then fail_line n ("truncated kind escape in: " ^ s);
        (* Both chars must be hex digits — [int_of_string_opt "0x.."]
           alone accepted junk like "%1_" because underscores (and a
           second "0x") are legal inside OCaml int literals. *)
        let c1 = s.[!i + 1] and c2 = s.[!i + 2] in
        if not (is_hex_digit c1 && is_hex_digit c2) then
          fail_line n ("bad kind escape in: " ^ s);
        Buffer.add_char buf
          (Char.chr (int_of_string (Printf.sprintf "0x%c%c" c1 c2)));
        i := !i + 3
      end
    done;
    Buffer.contents buf
  end

let rec parse_ranges n = function
  | [] -> []
  | [ _ ] -> fail_line n "dangling range component"
  | lo :: len :: rest -> range_of_len n lo len :: parse_ranges n rest

type header = { h_name : string; h_pid : int; h_bytecodes : int }

type on_event =
  kind:int -> seq:int -> k:int -> pid:int -> lo:int -> hi:int -> unit

type on_marker = int -> Recorded.marker -> unit

(* Text decoder state: the channel, the line number and the last
   event's seq. *)
type text_reader = {
  tr_ic : in_channel;
  mutable tr_line : int;
  mutable tr_event_seq : int;
}

(* Magic + header, eagerly; the returned reader is positioned at the
   first record line. *)
let text_open ic =
  let tr = { tr_ic = ic; tr_line = 0; tr_event_seq = min_int } in
  let next () =
    tr.tr_line <- tr.tr_line + 1;
    input_line ic
  in
  (match next () with
  | l when String.equal l magic -> ()
  | _ -> fail_line tr.tr_line "bad magic"
  | exception End_of_file -> fail_line 1 "empty file");
  let header key =
    match String.split_on_char ' ' (next ()) with
    | k :: rest when String.equal k key -> String.concat " " rest
    | _ -> fail_line tr.tr_line ("expected header " ^ key)
  in
  let h_name = header "name" in
  let h_pid = parse_int tr.tr_line (header "pid") in
  let h_bytecodes = parse_int tr.tr_line (header "bytecodes") in
  ({ h_name; h_pid; h_bytecodes }, tr)

(* Fields are parsed right to left — length, start, pid, k, seq — so a
   line with several bad fields reports the one it always has. *)
let text_event tr on_event n kind seq k pid lo len =
  let lo, hi =
    if kind = Event.kind_other then (0, 0)
    else begin
      let len = parse_int n len in
      let lo = parse_int n lo in
      (lo, hi_of_len n lo len)
    end
  in
  let pid = parse_int n pid in
  let k = parse_int n k in
  let seq = parse_int n seq in
  if seq < tr.tr_event_seq then fail_line n (backwards seq tr.tr_event_seq);
  tr.tr_event_seq <- seq;
  on_event ~kind ~seq ~k ~pid ~lo ~hi

(* One record line per pull; blank lines are skipped.  Nothing is
   accumulated — memory is one line. *)
let rec text_pull tr on_event on_marker =
  tr.tr_line <- tr.tr_line + 1;
  match input_line tr.tr_ic with
  | exception End_of_file -> false
  | "" -> text_pull tr on_event on_marker
  | line ->
      let n = tr.tr_line in
      (match String.split_on_char ' ' line with
      | [ "L"; seq; k; pid; lo; len ] ->
          text_event tr on_event n Event.kind_load seq k pid lo len
      | [ "S"; seq; k; pid; lo; len ] ->
          text_event tr on_event n Event.kind_store seq k pid lo len
      | [ "O"; seq; k; pid ] ->
          text_event tr on_event n Event.kind_other seq k pid "" ""
      | [ "M"; seq; "SRC"; kind; lo; len ] ->
          let range = range_of_len n lo len in
          let kind = unescape_kind n kind in
          on_marker (parse_int n seq) (Recorded.Source { kind; range })
      | "M" :: seq :: "SNK" :: kind :: rest ->
          let ranges = parse_ranges n rest in
          let kind = unescape_kind n kind in
          on_marker (parse_int n seq) (Recorded.Sink { kind; ranges })
      | _ -> fail_line n ("unrecognised record: " ^ line));
      true

(* Binary decoder state over the shared record reader: the delta
   baselines and the last event's seq.  Decoding an event allocates
   nothing. *)
type bin_reader = {
  br_rd : Wire.Reader.t;
  mutable br_prev_seq : int;
  mutable br_prev_k : int;
  mutable br_prev_lo : int;
  mutable br_event_seq : int;
}

let br_seq br =
  br.br_prev_seq <- br.br_prev_seq + Wire.Reader.svarint br.br_rd;
  br.br_prev_seq

let br_range br =
  let r = Wire.Reader.range br.br_rd br.br_prev_lo in
  br.br_prev_lo <- Range.lo r;
  r

(* Magic + header, eagerly; the returned reader is positioned at the
   first record. *)
let bin_open ic =
  let rd = Wire.Reader.create ~format:"Trace_io" ~magic:binary_magic ic in
  let h_name = Wire.Reader.header_string rd "name" in
  let h_pid = Wire.Reader.header_varint rd in
  let h_bytecodes = Wire.Reader.header_varint rd in
  ( { h_name; h_pid; h_bytecodes },
    {
      br_rd = rd;
      br_prev_seq = 0;
      br_prev_k = 0;
      br_prev_lo = 0;
      br_event_seq = min_int;
    } )

(* The seq check runs on the whole record, after [finish], so a record
   that is corrupt in other ways reports that first. *)
let bin_event br on_event ~kind ~seq ~k ~pid ~lo ~hi =
  let rd = br.br_rd in
  Wire.Reader.finish rd;
  if seq < br.br_event_seq then
    Wire.Reader.fail rd (backwards seq br.br_event_seq);
  br.br_event_seq <- seq;
  on_event ~kind ~seq ~k ~pid ~lo ~hi

let bin_pull br on_event on_marker =
  let rd = br.br_rd in
  let tag = Wire.Reader.next rd in
  if tag < 0 then false
  else begin
    if tag <= tag_other then begin
      let seq = br_seq br in
      let k = br.br_prev_k + Wire.Reader.svarint rd in
      br.br_prev_k <- k;
      let pid = Wire.Reader.varint rd in
      if tag = tag_other then
        bin_event br on_event ~kind:Event.kind_other ~seq ~k ~pid ~lo:0 ~hi:0
      else begin
        let lo = br.br_prev_lo + Wire.Reader.svarint rd in
        let hi = Wire.Reader.hi_of_len rd lo (Wire.Reader.varint rd) in
        br.br_prev_lo <- lo;
        let kind =
          if tag = tag_load then Event.kind_load else Event.kind_store
        in
        bin_event br on_event ~kind ~seq ~k ~pid ~lo ~hi
      end
    end
    else begin
      if tag <> tag_source && tag <> tag_sink then
        Wire.Reader.fail rd (Printf.sprintf "unknown record tag %d" tag);
      let seq = br_seq br in
      let kind = Wire.Reader.string rd "kind" in
      let marker =
        if tag = tag_source then Recorded.Source { kind; range = br_range br }
        else
          Recorded.Sink
            {
              kind;
              ranges =
                List.init (Wire.Reader.count rd "range") (fun _ -> br_range br);
            }
      in
      Wire.Reader.finish rd;
      on_marker seq marker
    end;
    true
  end

(* --- readers with format autodetection ----------------------------------- *)

let detect_channel ic =
  let mlen = String.length binary_magic in
  let fmt =
    if in_channel_length ic < mlen then Text
    else begin
      seek_in ic 0;
      if String.equal (really_input_string ic mlen) binary_magic then Binary
      else Text
    end
  in
  seek_in ic 0;
  fmt

let detect_format path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> detect_channel ic)

type decoder = Bin of bin_reader | Txt of text_reader

type reader = {
  r_ic : in_channel;
  r_header : header;
  r_dec : decoder;
  mutable r_closed : bool;
  (* [read_item]'s result slot and the callbacks that fill it, built
     once per reader. *)
  r_item : Recorded.item ref;
  r_on_event : on_event;
  r_on_marker : on_marker;
}

(* A synthetic instruction for deserialised memory events: serialisation
   keeps only the access, which is all the PIFT analysis consumes. *)
let synth_load = Insn.Ldr (Insn.Word, Reg.R0, Insn.Offset (Reg.R0, Insn.Imm 0))
let synth_store = Insn.Str (Insn.Word, Reg.R0, Insn.Offset (Reg.R0, Insn.Imm 0))

let event_of_fields ~kind ~seq ~k ~pid ~lo ~hi : Event.t =
  if kind = Event.kind_load then
    { seq; k; pid; insn = synth_load; access = Event.Load (Range.make lo hi) }
  else if kind = Event.kind_store then
    { seq; k; pid; insn = synth_store; access = Event.Store (Range.make lo hi) }
  else { seq; k; pid; insn = Insn.Nop; access = Event.Other }

let open_reader path =
  let ic = open_in_bin path in
  match
    match detect_channel ic with
    | Binary ->
        let h, br = bin_open ic in
        (h, Bin br)
    | Text ->
        let h, tr = text_open ic in
        (h, Txt tr)
  with
  | r_header, r_dec ->
      let r_item =
        ref (Recorded.Item_marker (0, Recorded.Sink { kind = ""; ranges = [] }))
      in
      {
        r_ic = ic;
        r_header;
        r_dec;
        r_closed = false;
        r_item;
        r_on_event =
          (fun ~kind ~seq ~k ~pid ~lo ~hi ->
            r_item :=
              Recorded.Item_event (event_of_fields ~kind ~seq ~k ~pid ~lo ~hi));
        r_on_marker = (fun seq m -> r_item := Recorded.Item_marker (seq, m));
      }
  | exception e ->
      close_in_noerr ic;
      raise e

let pull r ~on_event ~on_marker =
  match r.r_dec with
  | Bin br -> bin_pull br on_event on_marker
  | Txt tr -> text_pull tr on_event on_marker

let read_item r =
  if pull r ~on_event:r.r_on_event ~on_marker:r.r_on_marker then
    Some !(r.r_item)
  else None

let reader_header r = r.r_header

let close_reader r =
  if not r.r_closed then begin
    r.r_closed <- true;
    close_in_noerr r.r_ic
  end

let with_reader path f =
  let r = open_reader path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> f r)

let load ?profile path =
  Pift_obs.Profile.span profile "trace_io" (fun () ->
      with_reader path (fun r ->
          let trace = Trace.create () in
          let markers = ref [] in
          let on_event ~kind ~seq ~k ~pid ~lo ~hi =
            Trace.add trace (event_of_fields ~kind ~seq ~k ~pid ~lo ~hi)
          and on_marker seq m = markers := (seq, m) :: !markers in
          while pull r ~on_event ~on_marker do
            ()
          done;
          let h = r.r_header in
          {
            Recorded.name = h.h_name;
            trace;
            markers = Array.of_list (List.rev !markers);
            pid = h.h_pid;
            bytecodes = h.h_bytecodes;
          }))
