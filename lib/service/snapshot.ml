module Range = Pift_util.Range
module Wire = Pift_util.Wire
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance

(* On-disk durability for the multi-tenant engine.

   Layout (all integers are Wire varints; strings are length-prefixed
   raw bytes; ranges are [svarint lo, varint length]):

   {v
   "PIFTSNAP" <version byte '1'>
   <varint payload-length> <payload>   repeated until EOF
   payload := tag byte, then fields
     0 manifest  shards pid_range backend(str) with_origins(byte)
                 ni nt untaint(byte) n_sources n_tenants
     1 source    name(str) path(str) pid(hex str) orig-pid(hex str)
                 cursor
     2 tenant    pid name(str)
                 verdicts:  n { kind(str) flagged(byte) n-origins str* }
                 stats:     taint untaint lookups tainted_loads
                            max_bytes max_ranges events
                 last_time(svarint)
                 windows:   n { pid ltlt(svarint) nt_used }
                 store:     n { pid n-ranges range* }
                 prov(byte) — when 1:
                   entries:      n { pid label(str) n-ranges range* }
                   windows:      n { pid ltlt(svarint) nt_used
                                     n-labels str*
                                     opener_seq(svarint)
                                     opener(byte) [range] }
                   known-labels: n str*
                   probes
   v}

   The manifest must be record 1 and carries the engine config a
   restore needs (policy, origins mode) plus the pid-block layout and
   expected record counts, so truncation at a record
   boundary — which reads as a clean EOF — is still caught.  Source
   pids are hex strings rather than varints: they cross the snapshot /
   trace-file boundary (a restore re-derives tenant pids from them),
   and the strict hex validation gives corrupt bytes a typed,
   positioned failure instead of a silently misrouted tenant.

   Failure discipline matches Trace_io: every corrupt byte surfaces as
   [Failure "Snapshot: record N: ..."], never a bare exception, and a
   streaming {!iter} delivers every intact prefix record before the
   positioned error.  Writes are atomic (temp file + rename), so a
   crash mid-snapshot leaves the previous snapshot intact. *)

let magic = "PIFTSNAP"
let version = '1'
let max_record_payload = 1 lsl 24

let tag_manifest = 0
let tag_source = 1
let tag_tenant = 2

type manifest = {
  m_shards : int;
  m_pid_range : int;
  m_with_origins : bool;
  m_policy : Policy.t;
  m_sources : int;  (* expected source records *)
  m_tenants : int;  (* expected tenant records *)
}

type source_entry = {
  se_name : string;
  se_path : string;  (* "" for in-memory sources *)
  se_pid : int;
  se_orig_pid : int;
  se_cursor : int;
}

type t = {
  manifest : manifest;
  sources : source_entry list;
  tenants : Engine.tenant_persisted list;
}

type record =
  | R_manifest of manifest
  | R_source of source_entry
  | R_tenant of Engine.tenant_persisted

(* --- encoding ----------------------------------------------------------- *)

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_range buf r =
  Wire.add_svarint buf (Range.lo r);
  Wire.add_varint buf (Range.length r)

let add_ranges buf rs =
  Wire.add_varint buf (List.length rs);
  List.iter (add_range buf) rs

(* The manifest's backend field names the store that wrote the file.
   Persisted state is canonical range lists, so any store restores it;
   the field is kept for layout compatibility and checked only against
   the names builds have ever written. *)
let store_name = "flat"
let legacy_store_names = [ "functional"; "flat"; "hybrid" ]

let add_manifest buf m =
  Buffer.add_char buf (Char.chr tag_manifest);
  Wire.add_varint buf m.m_shards;
  Wire.add_varint buf m.m_pid_range;
  Wire.add_string buf store_name;
  add_bool buf m.m_with_origins;
  Wire.add_varint buf m.m_policy.Policy.ni;
  Wire.add_varint buf m.m_policy.Policy.nt;
  add_bool buf m.m_policy.Policy.untaint;
  Wire.add_varint buf m.m_sources;
  Wire.add_varint buf m.m_tenants

let add_source buf se =
  Buffer.add_char buf (Char.chr tag_source);
  Wire.add_string buf se.se_name;
  Wire.add_string buf se.se_path;
  Wire.add_string buf (Printf.sprintf "%x" se.se_pid);
  Wire.add_string buf (Printf.sprintf "%x" se.se_orig_pid);
  Wire.add_varint buf se.se_cursor

let add_prov buf (pp : Provenance.persisted) =
  Wire.add_varint buf (List.length pp.Provenance.ps_entries);
  List.iter
    (fun ((pid, label), ranges) ->
      Wire.add_varint buf pid;
      Wire.add_string buf label;
      add_ranges buf ranges)
    pp.Provenance.ps_entries;
  Wire.add_varint buf (List.length pp.Provenance.ps_windows);
  List.iter
    (fun (pw : Provenance.persisted_window) ->
      Wire.add_varint buf pw.Provenance.pw_pid;
      Wire.add_svarint buf pw.Provenance.pw_ltlt;
      Wire.add_varint buf pw.Provenance.pw_nt_used;
      Wire.add_varint buf (List.length pw.Provenance.pw_labels);
      List.iter (Wire.add_string buf) pw.Provenance.pw_labels;
      Wire.add_svarint buf pw.Provenance.pw_opener_seq;
      match pw.Provenance.pw_opener_range with
      | None -> add_bool buf false
      | Some r ->
          add_bool buf true;
          add_range buf r)
    pp.Provenance.ps_windows;
  Wire.add_varint buf (List.length pp.Provenance.ps_known_labels);
  List.iter (Wire.add_string buf) pp.Provenance.ps_known_labels;
  Wire.add_varint buf pp.Provenance.ps_probes

let add_tenant buf (tp : Engine.tenant_persisted) =
  Buffer.add_char buf (Char.chr tag_tenant);
  Wire.add_varint buf tp.Engine.tp_pid;
  Wire.add_string buf tp.Engine.tp_name;
  Wire.add_varint buf (List.length tp.Engine.tp_verdicts);
  List.iter
    (fun (v : Engine.verdict) ->
      Wire.add_string buf v.Engine.v_kind;
      add_bool buf v.Engine.v_flagged;
      Wire.add_varint buf (List.length v.Engine.v_origins);
      List.iter (Wire.add_string buf) v.Engine.v_origins)
    tp.Engine.tp_verdicts;
  let p = tp.Engine.tp_state in
  let s = p.Tracker.p_stats in
  Wire.add_varint buf s.Tracker.taint_ops;
  Wire.add_varint buf s.Tracker.untaint_ops;
  Wire.add_varint buf s.Tracker.lookups;
  Wire.add_varint buf s.Tracker.tainted_loads;
  Wire.add_varint buf s.Tracker.max_tainted_bytes;
  Wire.add_varint buf s.Tracker.max_ranges;
  Wire.add_varint buf s.Tracker.events;
  Wire.add_svarint buf p.Tracker.p_last_time;
  Wire.add_varint buf (List.length p.Tracker.p_windows);
  List.iter
    (fun (pid, ltlt, nt_used) ->
      Wire.add_varint buf pid;
      Wire.add_svarint buf ltlt;
      Wire.add_varint buf nt_used)
    p.Tracker.p_windows;
  Wire.add_varint buf (List.length p.Tracker.p_store);
  List.iter
    (fun (pid, ranges) ->
      Wire.add_varint buf pid;
      add_ranges buf ranges)
    p.Tracker.p_store;
  match p.Tracker.p_prov with
  | None -> add_bool buf false
  | Some pp ->
      add_bool buf true;
      add_prov buf pp

let to_channel t oc =
  output_string oc magic;
  output_char oc version;
  let payload = Buffer.create 256 in
  let prefix = Buffer.create 8 in
  let emit () =
    Buffer.clear prefix;
    Wire.add_varint prefix (Buffer.length payload);
    Buffer.output_buffer oc prefix;
    Buffer.output_buffer oc payload;
    Buffer.clear payload
  in
  add_manifest payload t.manifest;
  emit ();
  List.iter
    (fun se ->
      add_source payload se;
      emit ())
    t.sources;
  List.iter
    (fun tp ->
      add_tenant payload tp;
      emit ())
    t.tenants

(* Atomic: a crash (or SIGKILL) between two snapshot cadences must
   never leave a half-written file where the last good snapshot was —
   recovery always finds either the old complete snapshot or the new
   one.  The temp file lives in the same directory so the rename stays
   within one filesystem. *)
let write path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel t oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* --- decoding ----------------------------------------------------------- *)

let fail_record n msg = failwith (Printf.sprintf "Snapshot: record %d: %s" n msg)

(* Decoder over one buffered record: [Wire.Reader.has] pinned the whole
   payload into the chunk buffer, so fields decode in place between
   [pos] and [limit]. *)
type br = {
  rd : Wire.Reader.t;
  mutable record : int;
  mutable pos : int;
  mutable limit : int;
}

let br_fail br msg = fail_record br.record msg

let br_varint br =
  let rec go shift acc =
    if br.pos >= br.limit then br_fail br "truncated record payload"
    else begin
      let b = Char.code (Bytes.unsafe_get br.rd.Wire.Reader.buf br.pos) in
      br.pos <- br.pos + 1;
      if shift > 56 && b > 0x7f then br_fail br "varint overflow"
      else begin
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then acc else go (shift + 7) acc
      end
    end
  in
  go 0 0

let br_svarint br = Wire.unzigzag (br_varint br)

let br_bool br =
  if br.pos >= br.limit then br_fail br "truncated record payload";
  let b = Char.code (Bytes.unsafe_get br.rd.Wire.Reader.buf br.pos) in
  br.pos <- br.pos + 1;
  match b with
  | 0 -> false
  | 1 -> true
  | b -> br_fail br (Printf.sprintf "bad boolean byte %d" b)

let br_string br =
  let len = br_varint br in
  if len < 0 || br.pos + len > br.limit then br_fail br "truncated string";
  let s = Bytes.sub_string br.rd.Wire.Reader.buf br.pos len in
  br.pos <- br.pos + len;
  s

(* A bounded count before List.init keeps corrupt counts from
   allocating without limit: every element is at least one payload
   byte, so a legitimate count never exceeds the record length. *)
let br_count br what =
  let n = br_varint br in
  if n < 0 || n > br.limit - br.pos + 1 then
    br_fail br (Printf.sprintf "implausible %s count" what);
  n

let br_range br =
  let lo = br_svarint br in
  let len = br_varint br in
  try Range.of_len lo len with Invalid_argument msg -> br_fail br msg

let br_ranges br = List.init (br_count br "range") (fun _ -> br_range br)

(* Strict hex, mirroring Trace_io's kind-escape validation: any
   non-hex byte is a positioned error, and [int_of_string]'s laxness
   (underscores, nested "0x") never gets a say. *)
let br_hex_pid br what =
  let s = br_string br in
  if s = "" then br_fail br (Printf.sprintf "empty %s record" what);
  let v = ref 0 in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ ->
            br_fail br (Printf.sprintf "non-hex %s record: %S" what s)
      in
      if !v > max_int lsr 4 then
        br_fail br (Printf.sprintf "%s overflow: %S" what s);
      v := (!v lsl 4) lor d)
    s;
  !v

let read_manifest br =
  let m_shards = br_varint br in
  let m_pid_range = br_varint br in
  let backend_s = br_string br in
  if not (List.mem backend_s legacy_store_names) then
    br_fail br (Printf.sprintf "unknown backend %S" backend_s);
  let m_with_origins = br_bool br in
  let ni = br_varint br in
  let nt = br_varint br in
  let untaint = br_bool br in
  let policy =
    try Policy.make ~untaint ~ni ~nt ()
    with Invalid_argument msg -> br_fail br msg
  in
  let m_sources = br_varint br in
  let m_tenants = br_varint br in
  if m_shards <= 0 then br_fail br "manifest: shards must be positive";
  if m_pid_range <= 0 then br_fail br "manifest: pid_range must be positive";
  if m_sources < 0 || m_tenants < 0 then br_fail br "manifest: negative count";
  {
    m_shards;
    m_pid_range;
    m_with_origins;
    m_policy = policy;
    m_sources;
    m_tenants;
  }

let read_source br =
  let se_name = br_string br in
  let se_path = br_string br in
  let se_pid = br_hex_pid br "pid" in
  let se_orig_pid = br_hex_pid br "orig-pid" in
  let se_cursor = br_varint br in
  if se_cursor < 0 then br_fail br "negative cursor";
  { se_name; se_path; se_pid; se_orig_pid; se_cursor }

let read_prov br : Provenance.persisted =
  let ps_entries =
    List.init (br_count br "prov entry") (fun _ ->
        let pid = br_varint br in
        let label = br_string br in
        ((pid, label), br_ranges br))
  in
  let ps_windows =
    List.init (br_count br "prov window") (fun _ ->
        let pw_pid = br_varint br in
        let pw_ltlt = br_svarint br in
        let pw_nt_used = br_varint br in
        let pw_labels =
          List.init (br_count br "label") (fun _ -> br_string br)
        in
        let pw_opener_seq = br_svarint br in
        let pw_opener_range =
          if br_bool br then Some (br_range br) else None
        in
        {
          Provenance.pw_pid;
          pw_ltlt;
          pw_nt_used;
          pw_labels;
          pw_opener_seq;
          pw_opener_range;
        })
  in
  let ps_known_labels =
    List.init (br_count br "known label") (fun _ -> br_string br)
  in
  let ps_probes = br_varint br in
  { Provenance.ps_entries; ps_windows; ps_known_labels; ps_probes }

let read_tenant br : Engine.tenant_persisted =
  let tp_pid = br_varint br in
  let tp_name = br_string br in
  let tp_verdicts =
    List.init (br_count br "verdict") (fun _ ->
        let v_kind = br_string br in
        let v_flagged = br_bool br in
        let v_origins =
          List.init (br_count br "origin") (fun _ -> br_string br)
        in
        { Engine.v_kind; v_flagged; v_origins })
  in
  let taint_ops = br_varint br in
  let untaint_ops = br_varint br in
  let lookups = br_varint br in
  let tainted_loads = br_varint br in
  let max_tainted_bytes = br_varint br in
  let max_ranges = br_varint br in
  let events = br_varint br in
  let p_last_time = br_svarint br in
  let p_windows =
    List.init (br_count br "window") (fun _ ->
        let pid = br_varint br in
        let ltlt = br_svarint br in
        let nt_used = br_varint br in
        (pid, ltlt, nt_used))
  in
  let p_store =
    List.init (br_count br "store pid") (fun _ ->
        let pid = br_varint br in
        (pid, br_ranges br))
  in
  let p_prov = if br_bool br then Some (read_prov br) else None in
  {
    Engine.tp_pid;
    tp_name;
    tp_verdicts;
    tp_state =
      {
        Tracker.p_stats =
          {
            Tracker.taint_ops;
            untaint_ops;
            lookups;
            tainted_loads;
            max_tainted_bytes;
            max_ranges;
            events;
          };
        p_last_time;
        p_windows;
        p_store;
        p_prov;
      };
  }

let open_reader ic =
  let mlen = String.length magic in
  (match really_input_string ic mlen with
  | s when String.equal s magic -> ()
  | _ -> fail_record 0 "bad magic"
  | exception End_of_file -> fail_record 0 "bad magic (truncated)");
  (match input_char ic with
  | v when v = version -> ()
  | v ->
      fail_record 0
        (Printf.sprintf "unsupported snapshot version %C (want %C)" v version)
  | exception End_of_file -> fail_record 0 "bad magic (truncated)");
  { rd = Wire.Reader.create ic; record = 0; pos = 0; limit = 0 }

(* One record per pull; [None] only on EOF exactly at a record
   boundary.  Anything else — truncation, unknown tags, trailing bytes
   — fails with the record number, after every preceding record was
   already delivered. *)
let next br =
  let rd = br.rd in
  match Wire.Reader.varint ~first_eof_ok:true (fail_record (br.record + 1)) rd
  with
  | exception End_of_file -> None
  | len ->
      br.record <- br.record + 1;
      let fail msg = br_fail br msg in
      if len <= 0 then fail "empty record";
      if len > max_record_payload then fail "implausible record length";
      if not (Wire.Reader.has rd len) then
        fail (Printf.sprintf "truncated record (%d payload bytes)" len);
      br.pos <- rd.Wire.Reader.lo + 1;
      br.limit <- rd.Wire.Reader.lo + len;
      let tag = Char.code (Bytes.unsafe_get rd.Wire.Reader.buf rd.Wire.Reader.lo) in
      rd.Wire.Reader.lo <- rd.Wire.Reader.lo + len;
      let record =
        if tag = tag_manifest then R_manifest (read_manifest br)
        else if tag = tag_source then R_source (read_source br)
        else if tag = tag_tenant then R_tenant (read_tenant br)
        else fail (Printf.sprintf "unknown record tag %d" tag)
      in
      if br.pos <> br.limit then fail "trailing bytes in record";
      Some record

let iter path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let br = open_reader ic in
      let rec go () =
        match next br with
        | None -> ()
        | Some r ->
            f r;
            go ()
      in
      go ())

let load path =
  let manifest = ref None in
  let sources = ref [] in
  let tenants = ref [] in
  let records = ref 0 in
  iter path (fun r ->
      incr records;
      match r with
      | R_manifest m ->
          if !records <> 1 then
            fail_record !records "manifest must be the first record";
          manifest := Some m
      | R_source se ->
          if !manifest = None then
            fail_record !records "source record before manifest";
          sources := se :: !sources
      | R_tenant tp ->
          if !manifest = None then
            fail_record !records "tenant record before manifest";
          tenants := tp :: !tenants);
  match !manifest with
  | None -> fail_record 0 "empty snapshot (no manifest)"
  | Some m ->
      let sources = List.rev !sources in
      let tenants = List.rev !tenants in
      (* Truncation at a record boundary reads as clean EOF; the
         manifest counts catch it. *)
      if List.length sources <> m.m_sources then
        fail_record !records
          (Printf.sprintf "truncated snapshot: expected %d source records, got %d"
             m.m_sources (List.length sources));
      if List.length tenants <> m.m_tenants then
        fail_record !records
          (Printf.sprintf "truncated snapshot: expected %d tenant records, got %d"
             m.m_tenants (List.length tenants));
      { manifest = m; sources; tenants }

(* --- engine glue (engine idle) ------------------------------------------ *)

let source_entries sources =
  List.map
    (fun (s : Ingest.source) ->
      {
        se_name = s.Ingest.src_name;
        se_path = Option.value s.Ingest.src_path ~default:"";
        se_pid = s.Ingest.src_pid;
        se_orig_pid = s.Ingest.src_orig_pid;
        se_cursor = Ingest.cursor s;
      })
    sources

let of_engine ?(sources = []) eng =
  let tenants = Engine.persist_tenants eng in
  {
    manifest =
      {
        m_shards = Engine.shards eng;
        m_pid_range = Engine.pid_range eng;
        m_with_origins = Engine.with_origins eng;
        m_policy = Engine.policy eng;
        m_sources = List.length sources;
        m_tenants = List.length tenants;
      };
    sources;
    tenants;
  }

let save ?sources eng path = write path (of_engine ?sources eng)

(* Restores are strict about config compatibility: a tenant persisted
   under one policy/origins mode restored into an engine with
   another would silently diverge from the uninterrupted run — the one
   thing a durability layer must never do. *)
let restore_tenants eng t =
  let m = t.manifest in
  if Engine.policy eng <> m.m_policy then
    invalid_arg
      (Printf.sprintf "Snapshot.restore_tenants: engine policy %s <> snapshot %s"
         (Policy.to_string (Engine.policy eng))
         (Policy.to_string m.m_policy));
  if Engine.with_origins eng <> m.m_with_origins then
    invalid_arg "Snapshot.restore_tenants: origins mode mismatch";
  if Engine.pid_range eng <> m.m_pid_range then
    invalid_arg "Snapshot.restore_tenants: pid_range mismatch";
  List.iter (Engine.restore_tenant eng) t.tenants
