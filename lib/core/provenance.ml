module Range = Pift_util.Range
module Event = Pift_trace.Event
module Json = Pift_obs.Json
module Sset = Set.Make (String)

type window = {
  mutable ltlt : int;
  mutable nt_used : int;
  mutable labels : Sset.t;
  mutable opener_seq : int;
  mutable opener_range : Range.t option;
}

type propagation = {
  p_pid : int;
  p_store_seq : int;
  p_stored : Range.t;
  p_load_seq : int;
  p_loaded : Range.t;
  p_labels : string list;
}

(* Determinism audit: the per-pid label tables are only ever *iterated*
   for (a) [hit_labels], which folds into an Sset — commutative, so
   hashing order cannot leak into the result; (b) untainting, which
   removes the same range from independent per-label sets — commutative;
   and (c) [entries], which sorts before returning.  Every emission path
   goes through [labels_of]/[all_labels]/[entries] (all sorted), so
   provenance output is byte-identical across runs, store backends and
   --jobs counts.

   The state is indexed pid-first: scan paths (hit_labels, untainting)
   touch only the probed pid's label sets, so per-event cost tracks that
   process's label count instead of the whole tenant population — the
   flat (pid, label) table scanned every table entry per event, which
   melted down once a long-lived engine held thousands of cold pids. *)
type t = {
  policy : Policy.t;
  backend : Store_backend.backend;
  (* pid -> label -> tainted ranges *)
  state : (int, (string, Store_backend.set) Hashtbl.t) Hashtbl.t;
  windows : (int, window) Hashtbl.t;
  mutable known_labels : Sset.t;
  mutable on_propagate : (propagation -> unit) option;
  mutable probes : int;
}

let create ?(policy = Policy.default) ?(backend = Store_backend.Flat) () =
  {
    policy;
    backend;
    state = Hashtbl.create 16;
    windows = Hashtbl.create 4;
    known_labels = Sset.empty;
    on_propagate = None;
    probes = 0;
  }

let policy t = t.policy
let set_on_propagate t f = t.on_propagate <- Some f
let probes t = t.probes

let labels_for t pid =
  match Hashtbl.find_opt t.state pid with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add t.state pid tbl;
      tbl

let set_for t ~pid ~label =
  let tbl = labels_for t pid in
  match Hashtbl.find_opt tbl label with
  | Some s -> s
  | None ->
      let s = Store_backend.make t.backend in
      Hashtbl.add tbl label s;
      s

let window t pid =
  match Hashtbl.find_opt t.windows pid with
  | Some w -> w
  | None ->
      let w =
        { ltlt = min_int / 2; nt_used = 0; labels = Sset.empty;
          opener_seq = 0; opener_range = None }
      in
      Hashtbl.add t.windows pid w;
      w

let taint_source t ~pid ~label r =
  t.known_labels <- Sset.add label t.known_labels;
  (set_for t ~pid ~label).Store_backend.s_add r

let untaint_range t ~pid r =
  match Hashtbl.find_opt t.state pid with
  | None -> ()
  | Some tbl ->
      Hashtbl.iter
        (fun _ s ->
          t.probes <- t.probes + 1;
          s.Store_backend.s_remove r)
        tbl

let hit_labels t ~pid r =
  match Hashtbl.find_opt t.state pid with
  | None -> Sset.empty
  | Some tbl ->
      Hashtbl.fold
        (fun label s acc ->
          t.probes <- t.probes + 1;
          if s.Store_backend.s_overlaps r then Sset.add label acc else acc)
        tbl Sset.empty

let observe t e =
  match e.Event.access with
  | Event.Other -> ()
  | Event.Load r ->
      let labels = hit_labels t ~pid:e.pid r in
      if not (Sset.is_empty labels) then begin
        let w = window t e.pid in
        w.ltlt <- e.k;
        w.nt_used <- 0;
        w.labels <- labels;
        w.opener_seq <- e.seq;
        w.opener_range <- Some r
      end
  | Event.Store r ->
      let w = window t e.pid in
      if e.k <= w.ltlt + t.policy.Policy.ni && w.nt_used < t.policy.Policy.nt
      then begin
        Sset.iter
          (fun label -> (set_for t ~pid:e.pid ~label).Store_backend.s_add r)
          w.labels;
        w.nt_used <- w.nt_used + 1;
        match (t.on_propagate, w.opener_range) with
        | Some f, Some loaded when not (Sset.is_empty w.labels) ->
            f
              {
                p_pid = e.pid;
                p_store_seq = e.seq;
                p_stored = r;
                p_load_seq = w.opener_seq;
                p_loaded = loaded;
                p_labels = Sset.elements w.labels;
              }
        | _ -> ()
      end
      else if t.policy.Policy.untaint then
        match Hashtbl.find_opt t.state e.pid with
        | None -> ()
        | Some tbl ->
            Hashtbl.iter
              (fun _ s ->
                t.probes <- t.probes + 1;
                if s.Store_backend.s_overlaps r then s.Store_backend.s_remove r)
              tbl

let labels_of t ~pid r = Sset.elements (hit_labels t ~pid r)
let is_tainted t ~pid r = not (Sset.is_empty (hit_labels t ~pid r))
let all_labels t = Sset.elements t.known_labels

let tainted_bytes t ~label =
  Hashtbl.fold
    (fun _ tbl acc ->
      match Hashtbl.find_opt tbl label with
      | Some s -> acc + s.Store_backend.s_bytes ()
      | None -> acc)
    t.state 0

let release_pid t ~pid =
  Hashtbl.remove t.state pid;
  Hashtbl.remove t.windows pid

let entries t =
  List.sort
    (fun ((p1, l1), _) ((p2, l2), _) ->
      match compare (p1 : int) p2 with
      | 0 -> String.compare l1 l2
      | c -> c)
    (Hashtbl.fold
       (fun pid tbl acc ->
         Hashtbl.fold
           (fun label s acc ->
             ((pid, label), s.Store_backend.s_ranges ()) :: acc)
           tbl acc)
       t.state [])

(* --- persistence --------------------------------------------------------- *)

type persisted_window = {
  pw_pid : int;
  pw_ltlt : int;
  pw_nt_used : int;
  pw_labels : string list;
  pw_opener_seq : int;
  pw_opener_range : Range.t option;
}

type persisted = {
  ps_entries : ((int * string) * Range.t list) list;
  ps_windows : persisted_window list;
  ps_known_labels : string list;
  ps_probes : int;
}

(* Everything [observe]/[labels_of] depend on, in the deterministic
   orders the sorted accessors already guarantee: per-(pid,label) range
   sets, open windows (with their label sets and opener provenance, so
   an in-flight propagation window survives a snapshot), the label
   universe (a label can be known yet currently hold no ranges), and
   the probe counter so observability stays continuous across a
   restore. *)
let persist t =
  {
    ps_entries = entries t;
    ps_windows =
      List.sort
        (fun a b -> compare (a.pw_pid : int) b.pw_pid)
        (Hashtbl.fold
           (fun pid w acc ->
             {
               pw_pid = pid;
               pw_ltlt = w.ltlt;
               pw_nt_used = w.nt_used;
               pw_labels = Sset.elements w.labels;
               pw_opener_seq = w.opener_seq;
               pw_opener_range = w.opener_range;
             }
             :: acc)
           t.windows []);
    ps_known_labels = Sset.elements t.known_labels;
    ps_probes = t.probes;
  }

(* Rebuild into a freshly created sidecar (same policy as the persisted
   one — the snapshot manifest carries it; any backend takes the
   canonical range lists). *)
let restore t p =
  List.iter
    (fun ((pid, label), ranges) ->
      let s = set_for t ~pid ~label in
      List.iter s.Store_backend.s_add ranges)
    p.ps_entries;
  List.iter
    (fun pw ->
      Hashtbl.replace t.windows pw.pw_pid
        {
          ltlt = pw.pw_ltlt;
          nt_used = pw.pw_nt_used;
          labels = Sset.of_list pw.pw_labels;
          opener_seq = pw.pw_opener_seq;
          opener_range = pw.pw_opener_range;
        })
    p.ps_windows;
  t.known_labels <- Sset.of_list p.ps_known_labels;
  t.probes <- p.ps_probes

(* --- flow graphs -------------------------------------------------------- *)

module Graph = struct
  type node_kind = N_source of string | N_load | N_store | N_sink of string

  type node = {
    id : int;
    kind : node_kind;
    pid : int;
    range : Range.t;
    seq : int;
  }

  type edge = { e_from : int; e_to : int; e_seq : int }

  type t = {
    mutable nodes_rev : node list;
    mutable node_count : int;
    index : (node_kind * int * int * int * int, node) Hashtbl.t;
    mutable edges_rev : edge list;
    mutable edge_count : int;
    eindex : (int * int * int, unit) Hashtbl.t;
  }

  let create () =
    {
      nodes_rev = [];
      node_count = 0;
      index = Hashtbl.create 32;
      edges_rev = [];
      edge_count = 0;
      eindex = Hashtbl.create 32;
    }

  let node t ~kind ~pid ~range ~seq =
    let key = (kind, pid, Range.lo range, Range.hi range, seq) in
    match Hashtbl.find_opt t.index key with
    | Some n -> n
    | None ->
        let n = { id = t.node_count; kind; pid; range; seq } in
        t.node_count <- t.node_count + 1;
        t.nodes_rev <- n :: t.nodes_rev;
        Hashtbl.add t.index key n;
        n

  let edge t ~src ~dst ~seq =
    let key = (src.id, dst.id, seq) in
    if not (Hashtbl.mem t.eindex key) then begin
      Hashtbl.add t.eindex key ();
      t.edge_count <- t.edge_count + 1;
      t.edges_rev <- { e_from = src.id; e_to = dst.id; e_seq = seq } :: t.edges_rev
    end

  let nodes t = List.rev t.nodes_rev

  let edges t =
    List.sort
      (fun a b ->
        compare (a.e_from, a.e_to, a.e_seq) (b.e_from, b.e_to, b.e_seq))
      t.edges_rev

  let node_count t = t.node_count
  let edge_count t = t.edge_count

  let kind_label = function
    | N_source l -> "source " ^ l
    | N_load -> "load"
    | N_store -> "store"
    | N_sink k -> "sink " ^ k

  let dot_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let dot_shape = function
    | N_source _ -> "shape=ellipse, style=filled, fillcolor=lightblue"
    | N_load -> "shape=box"
    | N_store -> "shape=box, style=rounded"
    | N_sink _ -> "shape=doubleoctagon, style=filled, fillcolor=lightsalmon"

  let to_dot ?(name = "pift_flow") t =
    let buf = Buffer.create 1024 in
    Printf.bprintf buf "digraph \"%s\" {\n" (dot_escape name);
    Buffer.add_string buf "  rankdir=LR;\n";
    Buffer.add_string buf "  node [fontname=\"monospace\"];\n";
    List.iter
      (fun n ->
        Printf.bprintf buf "  n%d [%s, label=\"%s\\n%s @%d\"];\n" n.id
          (dot_shape n.kind)
          (dot_escape (kind_label n.kind))
          (dot_escape (Range.to_string n.range))
          n.seq)
      (nodes t);
    List.iter
      (fun e ->
        Printf.bprintf buf "  n%d -> n%d [label=\"@%d\"];\n" e.e_from e.e_to
          e.e_seq)
      (edges t);
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  type sink_summary = {
    ss_kind : string;
    ss_seq : int;
    ss_origins : string list;
    ss_nodes : int;
  }

  (* Perfetto wants per-tid timestamps non-decreasing, so events are
     sorted by (ts, rank): node slices open (rank 0) before any flow
     event at the same timestamp (rank 1) and close after (rank 2) —
     flow starts/finishes then always fall inside the zero-width slice
     they bind to. *)
  let flow_json ?(run = "pift") ?(sinks = []) t =
    let meta name value =
      Json.Obj
        [
          ("name", Json.String name);
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String value) ]);
        ]
    in
    let items = ref [] in
    let gen = ref 0 in
    let push ts rank j =
      items := (ts, rank, !gen, j) :: !items;
      incr gen
    in
    let base ~name ~ph ~ts rest =
      Json.Obj
        ([
           ("name", Json.String name);
           ("ph", Json.String ph);
           ("pid", Json.Int 1);
           ("tid", Json.Int 0);
           ("ts", Json.Float (float_of_int ts));
         ]
        @ rest)
    in
    List.iter
      (fun n ->
        let name = kind_label n.kind in
        let args =
          [
            ( "args",
              Json.Obj
                [
                  ("range", Json.String (Range.to_string n.range));
                  ("seq", Json.Int n.seq);
                  ("node", Json.Int n.id);
                ] );
          ]
        in
        push n.seq 0 (base ~name ~ph:"B" ~ts:n.seq args);
        push n.seq 2 (base ~name ~ph:"E" ~ts:n.seq []))
      (List.sort (fun a b -> compare (a.seq, a.id) (b.seq, b.id)) (nodes t));
    let by_id = Hashtbl.create 32 in
    List.iter (fun n -> Hashtbl.replace by_id n.id n) (nodes t);
    List.iteri
      (fun i e ->
        let seq_of id = (Hashtbl.find by_id id).seq in
        let flow ph ts extra =
          base ~name:"flow" ~ph ~ts
            ([ ("cat", Json.String "flow"); ("id", Json.Int i) ] @ extra)
        in
        push (seq_of e.e_from) 1 (flow "s" (seq_of e.e_from) []);
        push (seq_of e.e_to) 1
          (flow "f" (seq_of e.e_to) [ ("bp", Json.String "e") ]))
      (edges t);
    let sorted =
      List.map
        (fun (_, _, _, j) -> j)
        (List.sort
           (fun (ts1, r1, g1, _) (ts2, r2, g2, _) ->
             compare (ts1, r1, g1) (ts2, r2, g2))
           !items)
    in
    let sink_json ss =
      Json.Obj
        [
          ("kind", Json.String ss.ss_kind);
          ("seq", Json.Int ss.ss_seq);
          ("origins", Json.List (List.map (fun l -> Json.String l) ss.ss_origins));
          ("path_nodes", Json.Int ss.ss_nodes);
        ]
    in
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            (meta "process_name" run :: meta "thread_name" "provenance flow"
            :: sorted) );
        ("displayTimeUnit", Json.String "ms");
        ( "pift_flow_graph",
          Json.Obj
            [
              ("run", Json.String run);
              ("nodes", Json.Int (node_count t));
              ("edges", Json.Int (edge_count t));
              ("sinks", Json.List (List.map sink_json sinks));
            ] );
      ]
end
