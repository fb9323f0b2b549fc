module Range = Pift_util.Range
module Wire = Pift_util.Wire
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance

(* On-disk durability for the multi-tenant engine.

   A [Pift_util.Wire] record stream (integers are varints, strings
   length-prefixed raw bytes, ranges [svarint lo, varint length]) after
   the magic "PIFTSNAP" and a version byte '1', with no other header.
   Record payloads:

   {v
   tag byte, then fields
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

   Wire owns the framing and its errors: every corrupt byte surfaces as
   [Failure "Snapshot: record N: ..."], never a bare exception, and a
   streaming {!iter} delivers every intact prefix record before the
   positioned error.  Writes are atomic (temp file + rename), so a
   crash mid-snapshot leaves the previous snapshot intact. *)

let magic = "PIFTSNAP"
let version = '1'

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

let add_ranges buf rs =
  Wire.add_varint buf (List.length rs);
  List.iter (Wire.add_range buf 0) rs

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
  Wire.add_bool buf m.m_with_origins;
  Wire.add_varint buf m.m_policy.Policy.ni;
  Wire.add_varint buf m.m_policy.Policy.nt;
  Wire.add_bool buf m.m_policy.Policy.untaint;
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
      | None -> Wire.add_bool buf false
      | Some r ->
          Wire.add_bool buf true;
          Wire.add_range buf 0 r)
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
      Wire.add_bool buf v.Engine.v_flagged;
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
  | None -> Wire.add_bool buf false
  | Some pp ->
      Wire.add_bool buf true;
      add_prov buf pp

let to_channel t oc =
  let w = Wire.Writer.create oc (magic ^ String.make 1 version) in
  let buf = Wire.Writer.buf w in
  add_manifest buf t.manifest;
  Wire.Writer.record w;
  List.iter
    (fun se ->
      add_source buf se;
      Wire.Writer.record w)
    t.sources;
  List.iter
    (fun tp ->
      add_tenant buf tp;
      Wire.Writer.record w)
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

module R = Wire.Reader

let br_string r = R.string r "string"
let br_ranges r = List.init (R.count r "range") (fun _ -> R.range r 0)

(* Strict hex, mirroring Trace_io's kind-escape validation: any
   non-hex byte is a positioned error, and [int_of_string]'s laxness
   (underscores, nested "0x") never gets a say. *)
let br_hex_pid r what =
  let s = br_string r in
  if s = "" then R.fail r (Printf.sprintf "empty %s record" what);
  let v = ref 0 in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> R.fail r (Printf.sprintf "non-hex %s record: %S" what s)
      in
      if !v > max_int lsr 4 then
        R.fail r (Printf.sprintf "%s overflow: %S" what s);
      v := (!v lsl 4) lor d)
    s;
  !v

let read_manifest r =
  let m_shards = R.varint r in
  let m_pid_range = R.varint r in
  let backend_s = br_string r in
  if not (List.mem backend_s legacy_store_names) then
    R.fail r (Printf.sprintf "unknown backend %S" backend_s);
  let m_with_origins = R.bool r in
  let ni = R.varint r in
  let nt = R.varint r in
  let untaint = R.bool r in
  let policy =
    try Policy.make ~untaint ~ni ~nt () with Invalid_argument msg -> R.fail r msg
  in
  let m_sources = R.varint r in
  let m_tenants = R.varint r in
  if m_shards <= 0 then R.fail r "manifest: shards must be positive";
  if m_pid_range <= 0 then R.fail r "manifest: pid_range must be positive";
  if m_sources < 0 || m_tenants < 0 then R.fail r "manifest: negative count";
  {
    m_shards;
    m_pid_range;
    m_with_origins;
    m_policy = policy;
    m_sources;
    m_tenants;
  }

let read_source r =
  let se_name = br_string r in
  let se_path = br_string r in
  let se_pid = br_hex_pid r "pid" in
  let se_orig_pid = br_hex_pid r "orig-pid" in
  let se_cursor = R.varint r in
  if se_cursor < 0 then R.fail r "negative cursor";
  { se_name; se_path; se_pid; se_orig_pid; se_cursor }

let read_prov r : Provenance.persisted =
  let ps_entries =
    List.init (R.count r "prov entry") (fun _ ->
        let pid = R.varint r in
        let label = br_string r in
        ((pid, label), br_ranges r))
  in
  let ps_windows =
    List.init (R.count r "prov window") (fun _ ->
        let pw_pid = R.varint r in
        let pw_ltlt = R.svarint r in
        let pw_nt_used = R.varint r in
        let pw_labels = List.init (R.count r "label") (fun _ -> br_string r) in
        let pw_opener_seq = R.svarint r in
        let pw_opener_range = if R.bool r then Some (R.range r 0) else None in
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
    List.init (R.count r "known label") (fun _ -> br_string r)
  in
  let ps_probes = R.varint r in
  { Provenance.ps_entries; ps_windows; ps_known_labels; ps_probes }

let read_tenant r : Engine.tenant_persisted =
  let tp_pid = R.varint r in
  let tp_name = br_string r in
  let tp_verdicts =
    List.init (R.count r "verdict") (fun _ ->
        let v_kind = br_string r in
        let v_flagged = R.bool r in
        let v_origins = List.init (R.count r "origin") (fun _ -> br_string r) in
        { Engine.v_kind; v_flagged; v_origins })
  in
  let taint_ops = R.varint r in
  let untaint_ops = R.varint r in
  let lookups = R.varint r in
  let tainted_loads = R.varint r in
  let max_tainted_bytes = R.varint r in
  let max_ranges = R.varint r in
  let events = R.varint r in
  let p_last_time = R.svarint r in
  let p_windows =
    List.init (R.count r "window") (fun _ ->
        let pid = R.varint r in
        let ltlt = R.svarint r in
        let nt_used = R.varint r in
        (pid, ltlt, nt_used))
  in
  let p_store =
    List.init (R.count r "store pid") (fun _ ->
        let pid = R.varint r in
        (pid, br_ranges r))
  in
  let p_prov = if R.bool r then Some (read_prov r) else None in
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

let with_reader path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let r = R.create ~format:"Snapshot" ~magic ic in
      match R.header_byte r with
      | v when v = Char.code version -> f r
      | -1 -> R.fail r "bad magic (truncated)"
      | v ->
          R.fail r
            (Printf.sprintf "unsupported snapshot version %C (want %C)"
               (Char.chr v) version))

(* One record per pull; [None] only on EOF exactly at a record
   boundary.  Anything else fails with the record number, after every
   preceding record was already delivered. *)
let next r =
  match R.next r with
  | -1 -> None
  | tag ->
      let record =
        if tag = tag_manifest then R_manifest (read_manifest r)
        else if tag = tag_source then R_source (read_source r)
        else if tag = tag_tenant then R_tenant (read_tenant r)
        else R.fail r (Printf.sprintf "unknown record tag %d" tag)
      in
      R.finish r;
      Some record

let rec fold r f acc =
  match next r with None -> acc | Some x -> fold r f (f acc x)

let iter path f = with_reader path (fun r -> fold r (fun () -> f) ())

let load path =
  with_reader path (fun r ->
      let manifest, sources, tenants =
        fold r
          (fun (manifest, sources, tenants) -> function
            | R_manifest m ->
                (* A source or tenant first has already failed below. *)
                if manifest <> None then
                  R.fail r "manifest must be the first record";
                (Some m, sources, tenants)
            | R_source se ->
                if manifest = None then R.fail r "source record before manifest";
                (manifest, se :: sources, tenants)
            | R_tenant tp ->
                if manifest = None then R.fail r "tenant record before manifest";
                (manifest, sources, tp :: tenants))
          (None, [], [])
      in
      match manifest with
      | None -> R.fail r "empty snapshot (no manifest)"
      | Some m ->
          let sources = List.rev sources and tenants = List.rev tenants in
          (* Truncation at a record boundary reads as clean EOF; the
             manifest counts catch it. *)
          let check what want got =
            if got <> want then
              R.fail r
                (Printf.sprintf
                   "truncated snapshot: expected %d %s records, got %d" want
                   what got)
          in
          check "source" m.m_sources (List.length sources);
          check "tenant" m.m_tenants (List.length tenants);
          { manifest = m; sources; tenants })

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
