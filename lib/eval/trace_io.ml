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
   deep inside the parser. *)
let range_of_len n lo len =
  try Range.of_len (parse_int n lo) (parse_int n len)
  with Invalid_argument msg -> fail_line n msg

(* A synthetic instruction for deserialised memory events: serialisation
   keeps only the access, which is all the PIFT analysis consumes. *)
let synth_load = Insn.Ldr (Insn.Word, Reg.R0, Insn.Offset (Reg.R0, Insn.Imm 0))
let synth_store = Insn.Str (Insn.Word, Reg.R0, Insn.Offset (Reg.R0, Insn.Imm 0))

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

let text_event n seq k pid insn access =
  Recorded.Item_event
    { Event.seq = parse_int n seq; k = parse_int n k; pid = parse_int n pid;
      insn; access }

(* One record line to one stream item. *)
let text_item n line =
  match String.split_on_char ' ' line with
  | [ "L"; seq; k; pid; lo; len ] ->
      text_event n seq k pid synth_load (Event.Load (range_of_len n lo len))
  | [ "S"; seq; k; pid; lo; len ] ->
      text_event n seq k pid synth_store (Event.Store (range_of_len n lo len))
  | [ "O"; seq; k; pid ] -> text_event n seq k pid Insn.Nop Event.Other
  | [ "M"; seq; "SRC"; kind; lo; len ] ->
      Recorded.Item_marker
        ( parse_int n seq,
          Recorded.Source
            { kind = unescape_kind n kind; range = range_of_len n lo len } )
  | "M" :: seq :: "SNK" :: kind :: rest ->
      Recorded.Item_marker
        ( parse_int n seq,
          Recorded.Sink
            { kind = unescape_kind n kind; ranges = parse_ranges n rest } )
  | _ -> fail_line n ("unrecognised record: " ^ line)

(* Streaming text front: parse magic + header eagerly, then one item per
   pull.  Nothing is accumulated — memory is one line. *)
let text_open ic =
  let line_no = ref 0 in
  let next () =
    incr line_no;
    input_line ic
  in
  (match next () with
  | l when String.equal l magic -> ()
  | _ -> fail_line !line_no "bad magic"
  | exception End_of_file -> fail_line 1 "empty file");
  let header key =
    match String.split_on_char ' ' (next ()) with
    | k :: rest when String.equal k key -> String.concat " " rest
    | _ -> fail_line !line_no ("expected header " ^ key)
  in
  let h_name = header "name" in
  let h_pid = parse_int !line_no (header "pid") in
  let h_bytecodes = parse_int !line_no (header "bytecodes") in
  let event_seq = ref min_int in
  let rec next_item () =
    match next () with
    | exception End_of_file -> None
    | "" -> next_item ()
    | line ->
        let item = text_item !line_no line in
        (match item with
        | Recorded.Item_event e ->
            if e.Event.seq < !event_seq then
              fail_line !line_no (backwards e.Event.seq !event_seq);
            event_seq := e.Event.seq
        | Recorded.Item_marker _ -> ());
        Some item
  in
  ({ h_name; h_pid; h_bytecodes }, next_item)

(* Binary decoder state over the shared record reader: the delta
   baselines and the last event's seq.  Decoding a record allocates
   only the item itself. *)
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

let bin_next br =
  let rd = br.br_rd in
  let tag = Wire.Reader.next rd in
  if tag < 0 then None
  else begin
    let item =
      if tag <= tag_other then begin
        let seq = br_seq br in
        br.br_prev_k <- br.br_prev_k + Wire.Reader.svarint rd;
        let pid = Wire.Reader.varint rd in
        Recorded.Item_event
          (if tag = tag_other then
             { Event.seq; k = br.br_prev_k; pid; insn = Insn.Nop;
               access = Event.Other }
           else begin
             let r = br_range br in
             {
               Event.seq;
               k = br.br_prev_k;
               pid;
               insn = (if tag = tag_load then synth_load else synth_store);
               access = (if tag = tag_load then Event.Load r else Event.Store r);
             }
           end)
      end
      else if tag = tag_source then begin
        let seq = br_seq br in
        let kind = Wire.Reader.string rd "kind" in
        let range = br_range br in
        Recorded.Item_marker (seq, Recorded.Source { kind; range })
      end
      else if tag = tag_sink then begin
        let seq = br_seq br in
        let kind = Wire.Reader.string rd "kind" in
        let ranges =
          List.init (Wire.Reader.count rd "range") (fun _ -> br_range br)
        in
        Recorded.Item_marker (seq, Recorded.Sink { kind; ranges })
      end
      else Wire.Reader.fail rd (Printf.sprintf "unknown record tag %d" tag)
    in
    Wire.Reader.finish rd;
    (* Checked on the whole record, so a record that is corrupt in
       other ways reports that first. *)
    (match item with
    | Recorded.Item_event e ->
        if e.Event.seq < br.br_event_seq then
          Wire.Reader.fail rd (backwards e.Event.seq br.br_event_seq);
        br.br_event_seq <- e.Event.seq
    | Recorded.Item_marker _ -> ());
    Some item
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

type reader = {
  r_ic : in_channel;
  r_header : header;
  r_next : unit -> Recorded.item option;
  mutable r_closed : bool;
}

let open_reader path =
  let ic = open_in_bin path in
  match
    match detect_channel ic with
    | Binary ->
        let h, br = bin_open ic in
        (h, fun () -> bin_next br)
    | Text -> text_open ic
  with
  | r_header, r_next -> { r_ic = ic; r_header; r_next; r_closed = false }
  | exception e ->
      close_in_noerr ic;
      raise e

let read_item r = r.r_next ()
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
          let rec drain () =
            match read_item r with
            | None -> ()
            | Some (Recorded.Item_event e) ->
                Trace.add trace e;
                drain ()
            | Some (Recorded.Item_marker (seq, m)) ->
                markers := (seq, m) :: !markers;
                drain ()
          in
          drain ();
          let h = r.r_header in
          {
            Recorded.name = h.h_name;
            trace;
            markers = Array.of_list (List.rev !markers);
            pid = h.h_pid;
            bytecodes = h.h_bytecodes;
          }))
