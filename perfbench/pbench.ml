(* The OCaml half of the file-to-verdict benchmark (see run.py).

   Subcommands:
     info                          machine facts only OCaml can report
     gen WORKLOAD SEED DIR [tiny]  record the workload's fixtures and oracle
     sweep-run DIR SECONDS         sweep-grid worker (SECONDS = 0: set-up only)
     trace WORKLOAD DIR SECONDS    traced pass with per-layer accounting

   [gen] runs outside every timed region.  The serve workloads hand the
   program under test nothing but the binary trace files it writes. *)

module Range = Pift_util.Range
module Trace = Pift_trace.Trace
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io
module Accuracy = Pift_eval.Accuracy
module App = Pift_workloads.App
module Engine = Pift_service.Engine
module Ingest = Pift_service.Ingest
module Admin = Pift_service.Admin
module Snapshot = Pift_service.Snapshot
module Json = Pift_obs.Json

let now = Unix.gettimeofday

(* --- workloads -------------------------------------------------------- *)

type workload = Fanin | Durable | Grid

let workload_of_string = function
  | "serve-fanin" -> Fanin
  | "serve-durable" -> Durable
  | "sweep-grid" -> Grid
  | s -> failwith ("unknown workload " ^ s)

(* serve-durable runs at the paper's taint-explosion point (Figs. 14-19). *)
let policy_of = function
  | Durable -> Policy.make ~untaint:false ~ni:20 ~nt:3 ()
  | Fanin | Grid -> Policy.default

let prov_of w = w = Durable

(* Domains one workload process runs: [pift serve --shards 1] is a
   producer plus one shard consumer; the sweep pool has 2 jobs. *)
let domains = 2

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The seed picks the DroidBench apps and the tenant order; the LGRoot
   and browser sizes are a fixed multiset, so every seed does nearly the
   same amount of work and seed-to-seed spread is measurement noise,
   not input size. *)
let fanin_mix rng ~tiny =
  let lgroot (rounds, payload_chars) =
    Pift_workloads.Malware.lgroot_sized ~rounds ~payload_chars
  in
  let browser pages = Pift_workloads.Browser.sized ~pages in
  let sinky =
    List.filter (fun (a : App.t) -> a.App.leaky) Pift_workloads.Droidbench.all
  in
  let droid n = List.init n (fun _ -> pick rng sinky) in
  shuffle rng
    (if tiny then [ lgroot (1, 64); browser 1 ] @ droid 2
     else
       List.map lgroot
         [ (1, 128); (1, 256); (1, 512); (2, 128); (2, 256); (2, 256);
           (2, 512); (3, 128); (3, 256); (3, 512) ]
       @ List.map browser [ 1; 1; 1; 2; 2; 2; 2; 3; 3; 3 ]
       @ droid 12)

let durable_mix rng ~tiny =
  List.map
    (fun rounds ->
      Pift_workloads.Malware.lgroot_sized ~rounds
        ~payload_chars:(if tiny then 256 else 1024))
    (shuffle rng (if tiny then [ 1; 1 ] else [ 9; 10; 11; 12 ]))

(* The 57-app suite in a seeded order; the grid is Fig. 11's. *)
let grid_apps rng ~tiny =
  let apps = shuffle rng Pift_workloads.Droidbench.all in
  if tiny then List.filteri (fun i _ -> i < 8) apps else apps

let grid_of ~tiny =
  if tiny then ([ 1; 2; 3 ], [ 1; 2 ])
  else (Accuracy.default_nis, Accuracy.default_nts)

(* --- the oracle ------------------------------------------------------- *)

(* Exact taint state at one bit per byte, the [Bytemap] oracle's
   representation, but paged: [Store_bytemap] is dense from address 0,
   and these traces touch addresses up to ~0x7fff_ffff, which would cost
   hundreds of MiB per set.  Every operation is a per-byte loop, and the
   range count is kept from the runs inside [lo - 1, hi + 1] before and
   after each mutation, so nothing here shares code with the production
   stores.  Origin sets come from the provenance sidecar on the [Flat]
   backend ([Provenance.create] takes no custom store, and its [Bytemap]
   sets are dense too): a different store implementation from the
   [Functional] default that [pift serve] runs. *)
module Oracle_store = struct
  let page_bits = 12

  let create () : Store.t =
    let pages : (int * int, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
    let bytes = ref 0 and count = ref 0 in
    let get pid a =
      match Hashtbl.find_opt pages (pid, a lsr page_bits) with
      | None -> false
      | Some b ->
          let o = a land ((1 lsl page_bits) - 1) in
          Char.code (Bytes.get b (o lsr 3)) land (1 lsl (o land 7)) <> 0
    in
    let set pid a v =
      let key = (pid, a lsr page_bits) in
      let b =
        match Hashtbl.find_opt pages key with
        | Some b -> b
        | None ->
            let b = Bytes.make (1 lsl (page_bits - 3)) '\000' in
            Hashtbl.add pages key b;
            b
      in
      let o = a land ((1 lsl page_bits) - 1) in
      let c = Char.code (Bytes.get b (o lsr 3)) and m = 1 lsl (o land 7) in
      if c land m <> 0 <> v then begin
        Bytes.set b (o lsr 3)
          (Char.chr (if v then c lor m else c land lnot m land 0xff));
        bytes := !bytes + if v then 1 else -1
      end
    in
    let runs pid lo hi =
      let n = ref 0 and prev = ref false in
      for a = max 0 lo to hi do
        let b = get pid a in
        if b && not !prev then incr n;
        prev := b
      done;
      !n
    in
    let mutate v ~pid r =
      let lo = Range.lo r - 1 and hi = Range.hi r + 1 in
      let before = runs pid lo hi in
      for a = Range.lo r to Range.hi r do
        set pid a v
      done;
      count := !count + runs pid lo hi - before
    in
    let overlaps ~pid r =
      let rec go a = a <= Range.hi r && (get pid a || go (a + 1)) in
      go (Range.lo r)
    in
    let unsupported _ = failwith "Oracle_store: replay-only store" in
    {
      Store.add = mutate true;
      remove = mutate false;
      overlaps;
      tainted_bytes = (fun () -> !bytes);
      range_count = (fun () -> !count);
      ranges = (fun ~pid -> unsupported pid);
      release_pid = (fun ~pid -> unsupported pid);
      dump = unsupported;
    }
end

(* --- output formats shared by the oracle and every checked run ------- *)

(* Byte-for-byte the tenant block [pift serve] prints. *)
let block ~name ~prov verdicts (s : Tracker.stats) =
  let b = Buffer.create 256 in
  Printf.bprintf b "tenant %s\n" name;
  List.iter
    (fun (kind, flagged, origins) ->
      Printf.bprintf b "  sink %-6s -> %s%s\n" kind
        (if flagged then "TAINTED" else "clean")
        (if prov && origins <> [] then " [" ^ String.concat ", " origins ^ "]"
         else ""))
    verdicts;
  Printf.bprintf b
    "  stats: %d events, %d taint ops, %d untaint ops, %d lookups, max %d \
     tainted bytes, %d ranges\n"
    s.Tracker.events s.Tracker.taint_ops s.Tracker.untaint_ops
    s.Tracker.lookups s.Tracker.max_tainted_bytes s.Tracker.max_ranges;
  Buffer.contents b

let classify ~leaky ~flagged (c : Accuracy.confusion) =
  match (leaky, flagged) with
  | true, true -> { c with tp = c.tp + 1 }
  | true, false -> { c with fn = c.fn + 1 }
  | false, true -> { c with fp = c.fp + 1 }
  | false, false -> { c with tn = c.tn + 1 }

let empty = { Accuracy.tp = 0; fp = 0; tn = 0; fn = 0 }

let cells_text cells =
  String.concat ""
    (List.map
       (fun ((ni, nt), (c : Accuracy.confusion)) ->
         Printf.sprintf "cell %d %d: tp %d fp %d tn %d fn %d\n" ni nt c.tp c.fp
           c.tn c.fn)
       (List.sort compare cells))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let file_size path = (Unix.stat path).Unix.st_size

let print_json j =
  print_endline (Json.to_string j);
  flush stdout

(* --- gen -------------------------------------------------------------- *)

let fixture_files dir =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "file"; f ] -> Some (Filename.concat dir f)
      | _ -> None)
    (read_lines (Filename.concat dir "fixtures.txt"))

let segment_of dir =
  match
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "segment"; n ] -> Some (int_of_string n)
        | _ -> None)
      (read_lines (Filename.concat dir "fixtures.txt"))
  with
  | Some n -> n
  | None -> failwith "fixtures.txt: no segment line"

let grid_fixture dir =
  match read_lines (Filename.concat dir "fixtures.txt") with
  | grid :: names ->
      let nis, nts =
        match String.split_on_char ' ' grid with
        | [ "grid"; ni; nt ] ->
            ( List.init (int_of_string ni) succ,
              List.init (int_of_string nt) succ )
        | _ -> failwith "fixtures.txt: bad grid line"
      in
      let apps =
        List.map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "app"; name ] -> (
                match Pift_workloads.Droidbench.find name with
                | Some a -> a
                | None -> failwith ("unknown app " ^ name))
            | _ -> failwith "fixtures.txt: bad app line")
          names
      in
      (nis, nts, apps)
  | [] -> failwith "fixtures.txt: empty"

let gen w seed dir ~tiny =
  let rng = Random.State.make [| seed |] in
  let policy = policy_of w and prov = prov_of w in
  let sizes = ref [] in
  let config =
    match w with
    | Fanin | Durable ->
        let apps =
          if w = Fanin then fanin_mix rng ~tiny else durable_mix rng ~tiny
        in
        Unix.mkdir (Filename.concat dir "empty") 0o755;
        let expected = Buffer.create 4096 and listing = Buffer.create 1024 in
        let items = ref 0 in
        List.iteri
          (fun i app ->
            let r = Recorded.record app in
            let file = Printf.sprintf "t%02d-%s.piftbin" i r.Recorded.name in
            let path = Filename.concat dir file in
            Trace_io.save ~format:Trace_io.Binary r path;
            (* Header-only twin: the same invocation with zero events
               measures the fixed per-invocation cost (setup_s). *)
            Trace_io.save ~format:Trace_io.Binary
              { r with Recorded.trace = Trace.create (); markers = [||] }
              (Filename.concat (Filename.concat dir "empty") file);
            let events = Trace.length r.Recorded.trace in
            items := !items + events + Array.length r.Recorded.markers;
            sizes := (file, events, file_size path) :: !sizes;
            Printf.bprintf listing "file %s\n" file;
            let rp =
              Recorded.replay ~store:(Oracle_store.create ())
                ~backend:Store.Flat ~with_origins:prov ~policy r
            in
            let verdicts =
              if prov then
                List.map
                  (fun (v : Recorded.origin_verdict) ->
                    (v.Recorded.ov_kind, v.Recorded.ov_flagged,
                     v.Recorded.ov_origins))
                  rp.Recorded.origins
              else
                List.map
                  (fun (v : Recorded.verdict) ->
                    (v.Recorded.kind, v.Recorded.flagged, []))
                  rp.Recorded.verdicts
            in
            Buffer.add_string expected
              (block ~name:r.Recorded.name ~prov verdicts rp.Recorded.stats);
            Gc.compact ())
          apps;
        let segment = max 1 (!items / 12) in
        if w = Durable then Printf.bprintf listing "segment %d\n" segment;
        write_file (Filename.concat dir "fixtures.txt") (Buffer.contents listing);
        write_file (Filename.concat dir "reference.txt") (Buffer.contents expected);
        let serve_args =
          [ "serve"; "--shards"; "1" ]
          @
          if w = Durable then
            [ "--ni"; "20"; "--nt"; "3"; "--untaint"; "false"; "--prov";
              "--snapshot-every"; string_of_int segment ]
          else []
        in
        [
          ("serve_args", Json.List (List.map (fun s -> Json.String s) serve_args));
          ("snapshots", Json.Bool (w = Durable));
        ]
    | Grid ->
        let apps = grid_apps rng ~tiny in
        let nis, nts = grid_of ~tiny in
        let recs = List.map Recorded.record apps in
        let cells =
          List.concat_map
            (fun ni ->
              List.map
                (fun nt ->
                  let policy = Policy.make ~ni ~nt () in
                  ( (ni, nt),
                    List.fold_left2
                      (fun c (app : App.t) r ->
                        let rp =
                          Recorded.replay ~store:(Oracle_store.create ())
                            ~policy r
                        in
                        classify ~leaky:app.App.leaky
                          ~flagged:rp.Recorded.flagged c)
                      empty apps recs ))
                nts)
            nis
        in
        List.iter2
          (fun (app : App.t) r ->
            sizes :=
              (app.App.name, Trace.length r.Recorded.trace, 0) :: !sizes)
          apps recs;
        write_file
          (Filename.concat dir "fixtures.txt")
          (String.concat ""
             (Printf.sprintf "grid %d %d\n" (List.length nis) (List.length nts)
             :: List.map (fun (a : App.t) -> "app " ^ a.App.name ^ "\n") apps));
        write_file (Filename.concat dir "reference.txt") (cells_text cells);
        [ ("cells", Json.Int (List.length cells)) ]
  in
  let sizes = List.rev !sizes in
  let events = List.fold_left (fun a (_, e, _) -> a + e) 0 sizes in
  let work =
    match w with
    | Grid ->
        let nis, nts = grid_of ~tiny in
        events * List.length nis * List.length nts
    | Fanin | Durable -> events
  in
  let j =
    Json.Obj
      ([
         ("seed", Json.Int seed);
         ("fixtures", Json.Int (List.length sizes));
         ("fixture_events", Json.Int events);
         ( "fixture_bytes",
           Json.Int (List.fold_left (fun a (_, _, b) -> a + b) 0 sizes) );
         ("events_per_pass", Json.Int work);
         ( "sizes",
           Json.List
             (List.map
                (fun (n, e, b) ->
                  Json.Obj
                    [
                      ("name", Json.String n);
                      ("events", Json.Int e);
                      ("bytes", Json.Int b);
                    ])
                sizes) );
       ]
      @ config)
  in
  write_file (Filename.concat dir "config.json") (Json.to_string j ^ "\n");
  print_json j

(* --- sweep-grid worker ------------------------------------------------ *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sweep_run dir seconds =
  let nis, nts, apps = grid_fixture dir in
  if seconds <= 0. then ignore (Accuracy.sweep ~jobs:domains ~nis ~nts [])
  else begin
    let deadline = now () +. seconds in
    let first = ref "" in
    let rec loop i =
      let t0 = now () and c0 = cpu_now () in
      let s = Accuracy.sweep ~jobs:domains ~nis ~nts apps in
      let wall = now () -. t0 and cpu = cpu_now () -. c0 in
      let text = cells_text s.Accuracy.cells in
      if i = 0 then first := text;
      print_json
        (Json.Obj
           ([ ("wall", Json.Float wall); ("cpu", Json.Float cpu) ]
           @ if i = 0 || text <> !first then [ ("cells", Json.String text) ]
             else []));
      if now () < deadline || i < 2 then loop (i + 1)
    in
    loop 0
  end

(* --- traced run ------------------------------------------------------- *)

(* Spans at layer boundaries, kept in memory and written out at the end.
   A span's self time is its duration minus its children's.  Spans named
   [bench.*] are the benchmark's own measurement work (store op-log
   replays, staging) and are excluded from the wall being reconciled. *)
module Spans = struct
  type t = {
    id : int;
    name : string;
    parent : int;
    start : float;
    mutable stop : float;
  }

  let all : t list ref = ref []
  let stack : t list ref = ref []
  let next = ref 0

  let reset () =
    all := [];
    stack := [];
    next := 0

  let add ~name ~parent ~start ~stop =
    let s = { id = !next; name; parent; start; stop } in
    incr next;
    all := s :: !all;
    s

  let top () = match !stack with s :: _ -> s.id | [] -> -1

  let enter name =
    let t = now () in
    stack := add ~name ~parent:(top ()) ~start:t ~stop:t :: !stack

  let leave () =
    match !stack with
    | s :: rest ->
        s.stop <- now ();
        stack := rest
    | [] -> invalid_arg "Spans.leave"

  let with_ name f =
    enter name;
    Fun.protect ~finally:leave f

  let dur s = s.stop -. s.start

  (* name -> Σ self time, plus the root's duration *)
  let self_times () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      !all;
    let self = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let v =
          dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
        in
        Hashtbl.replace self s.name
          (v +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
      !all;
    self

  let sum_dur name =
    List.fold_left (fun a s -> if s.name = name then a +. dur s else a) 0. !all

  let to_json () =
    Json.List
      (List.rev_map
         (fun s ->
           Json.Obj
             [
               ("id", Json.Int s.id);
               ("name", Json.String s.name);
               ("parent", Json.Int s.parent);
               ("start", Json.Float s.start);
               ("end", Json.Float s.stop);
             ])
         !all)
end

(* Store op log: the wrapped [Store.t] appends each operation here
   without reading the clock; [replay] times the logged ops against a
   shadow store that receives the same sequence, so it holds the same
   state. *)
module Oplog = struct
  type t = { mutable a : int array; mutable n : int; mutable total : int }

  let create () = { a = Array.make 256 0; n = 0; total = 0 }

  let push t op pid r =
    if t.n + 4 > Array.length t.a then begin
      let a = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- op;
    t.a.(t.n + 1) <- pid;
    t.a.(t.n + 2) <- Range.lo r;
    t.a.(t.n + 3) <- Range.hi r;
    t.n <- t.n + 4

  let wrap t (s : Store.t) : Store.t =
    {
      s with
      Store.add =
        (fun ~pid r ->
          push t 0 pid r;
          s.Store.add ~pid r);
      remove =
        (fun ~pid r ->
          push t 1 pid r;
          s.Store.remove ~pid r);
      overlaps =
        (fun ~pid r ->
          push t 2 pid r;
          s.Store.overlaps ~pid r);
    }

  (* Replays and clears the log; returns (start, stop). *)
  let replay t (shadow : Store.t) =
    let start = now () in
    let a = t.a in
    let i = ref 0 in
    while !i < t.n do
      let pid = a.(!i + 1) and r = Range.make a.(!i + 2) a.(!i + 3) in
      (match a.(!i) with
      | 0 -> shadow.Store.add ~pid r
      | 1 -> shadow.Store.remove ~pid r
      | _ -> ignore (Sys.opaque_identity (shadow.Store.overlaps ~pid r)));
      i := !i + 4
    done;
    t.total <- t.total + (t.n / 4);
    t.n <- 0;
    (start, now ())
end

(* Per-pass counters, reset with the spans. *)
type counters = {
  mutable decoded : int;
  mutable merged : int;
  mutable sinks : int;
  mutable creates : int;
  mutable labels : int;
  mutable recorded : int;
  mutable stats : Tracker.stats list;
  mutable snap_writes : float list;
  mutable snap_bytes : int;
  mutable restore_s : float;
  mutable batches : int;
  mutable max_depth : int;
  mutable dropped : int;
  mutable segments : int;
  mutable busy_share : float;
  mutable engine_wall : float;
  mutable split_wall : float;
  mutable engine_run : float;
  mutable store_ops : int;
}

let fresh () =
  {
    decoded = 0;
    merged = 0;
    sinks = 0;
    creates = 0;
    labels = 0;
    recorded = 0;
    stats = [];
    snap_writes = [];
    snap_bytes = 0;
    restore_s = 0.;
    batches = 0;
    max_depth = 0;
    dropped = 0;
    segments = 0;
    busy_share = 0.;
    engine_wall = 0.;
    split_wall = 0.;
    engine_run = 0.;
    store_ops = 0;
  }

(* One tenant of the one-domain layer-split leg. *)
type tenant = {
  tracker : Tracker.t;
  log : Oplog.t;
  shadow : Store.t;
  prov : Provenance.t option;
  mutable verdicts : (string * bool * string list) list;
}

let tenant c ~policy ~prov =
  c.creates <- c.creates + 1;
  Spans.enter "bench.setup";
  let log = Oplog.create () and shadow = Store.create () in
  Spans.leave ();
  Spans.enter "tracker.observe";
  Spans.enter "store.op";
  let store = Store.create () in
  Spans.leave ();
  let tracker = Tracker.create ~policy ~store:(Oplog.wrap log store) () in
  Spans.leave ();
  let prov =
    if prov then
      Some (Spans.with_ "provenance.observe" (fun () -> Provenance.create ~policy ()))
    else None
  in
  { tracker; log; shadow; prov; verdicts = [] }

let is_sink = function Engine.I_sink _ -> true | _ -> false

(* Stage [items.(0 .. n-1)] through one layer at a time: the tracker up
   to the next sink, the logged store ops, the provenance sidecar over
   the same items, then the sink check.  Clock reads happen per stage
   and per sink, never per event. *)
let stage c tn (items : Engine.item array) n =
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    Spans.enter "tracker.observe";
    let tspan = Spans.top () in
    while !j < n && not (is_sink items.(!j)) do
      (match items.(!j) with
      | Engine.I_event e -> Tracker.observe tn.tracker e
      | Engine.I_source { pid; kind; range } ->
          Tracker.taint_source ~kind tn.tracker ~pid range
      | Engine.I_untaint { pid; range } ->
          Tracker.untaint_range tn.tracker ~pid range
      | Engine.I_sink _ | Engine.I_evict _ -> ());
      incr j
    done;
    Spans.leave ();
    let start, stop = Oplog.replay tn.log tn.shadow in
    ignore (Spans.add ~name:"bench.store_replay" ~parent:(Spans.top ()) ~start ~stop);
    ignore (Spans.add ~name:"store.op" ~parent:tspan ~start ~stop);
    (match tn.prov with
    | None -> ()
    | Some p ->
        Spans.enter "provenance.observe";
        for k = !i to !j - 1 do
          match items.(k) with
          | Engine.I_event e -> Provenance.observe p e
          | Engine.I_source { pid; kind; range } ->
              Provenance.taint_source p ~pid ~label:kind range
          | Engine.I_untaint { pid; range } ->
              Provenance.untaint_range p ~pid range
          | Engine.I_sink _ | Engine.I_evict _ -> ()
        done;
        Spans.leave ());
    (if !j < n then
       match items.(!j) with
       | Engine.I_sink { pid; kind; ranges } ->
           Spans.enter "sink.check";
           let flagged =
             List.exists (fun r -> Tracker.is_tainted tn.tracker ~pid r) ranges
           in
           let origins =
             match tn.prov with
             | None -> []
             | Some p ->
                 List.sort_uniq String.compare
                   (List.concat_map (fun r -> Provenance.labels_of p ~pid r) ranges)
           in
           Spans.leave ();
           c.sinks <- c.sinks + 1;
           tn.verdicts <- (kind, flagged, origins) :: tn.verdicts
       | _ -> ());
    i := !j + 1
  done

let finish c tn =
  let st = Tracker.stats tn.tracker in
  c.stats <- st :: c.stats;
  c.store_ops <- c.store_ops + tn.log.Oplog.total;
  (match tn.prov with
  | Some p -> c.labels <- c.labels + List.length (Provenance.all_labels p)
  | None -> ());
  (List.rev tn.verdicts, st)

let chunk = 512

(* Layer-split leg over trace files: read_item -> to_engine_item ->
   tracker (+ store, provenance) -> sink, a chunk at a time. *)
let split_files c ~policy ~prov files =
  let out = Buffer.create 4096 in
  let buf = Array.make chunk None and items = Array.make chunk (Engine.I_evict { pid = 0 }) in
  Spans.with_ "split" (fun () ->
      List.iteri
        (fun i path ->
          Spans.enter "trace_io.decode";
          let src = Ingest.of_file ~pid:(Ingest.tenant_pid i) path in
          Spans.leave ();
          let tn = tenant c ~policy ~prov in
          let rec loop () =
            Spans.enter "trace_io.decode";
            let n = ref 0 in
            let fin = ref false in
            while !n < chunk && not !fin do
              match src.Ingest.src_next () with
              | Some it ->
                  buf.(!n) <- Some it;
                  incr n
              | None -> fin := true
            done;
            Spans.leave ();
            Spans.enter "ingest.convert";
            for k = 0 to !n - 1 do
              items.(k) <- Ingest.to_engine_item src (Option.get buf.(k))
            done;
            Spans.leave ();
            stage c tn items !n;
            if not !fin then loop ()
          in
          loop ();
          Ingest.close src;
          let verdicts, st = finish c tn in
          Buffer.add_string out (block ~name:src.Ingest.src_name ~prov verdicts st))
        files);
  Buffer.contents out

(* Engine leg: what [Ingest.run] does, from public calls, with decode,
   merge, producer and drain time separated.  Sources and the merged
   stream are read ahead a chunk at a time so the clock is read per
   chunk, not per item. *)
let engine_leg c ~policy ~prov ~segment ~snap files =
  let pulled = ref 0 in
  let chunked next size on_item =
    let buf = Array.make size None and len = ref 0 and pos = ref 0 in
    let fin = ref false in
    fun ~span () ->
      if !pos = !len && not !fin then begin
        Spans.enter span;
        len := 0;
        pos := 0;
        while !len < size && not !fin do
          match next () with
          | Some it ->
              buf.(!len) <- Some it;
              incr len;
              on_item ()
          | None -> fin := true
        done;
        Spans.leave ()
      end;
      if !pos < !len then begin
        let it = buf.(!pos) in
        buf.(!pos) <- None;
        incr pos;
        it
      end
      else None
  in
  let sources =
    Spans.with_ "trace_io.decode" (fun () ->
        List.mapi
          (fun i path ->
            let s = Ingest.of_file ~pid:(Ingest.tenant_pid i) path in
            let next =
              chunked s.Ingest.src_next 64 (fun () -> c.decoded <- c.decoded + 1)
            in
            { s with Ingest.src_next = next ~span:"trace_io.decode" })
          files)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Ingest.close sources)
    (fun () ->
      Engine.with_engine ~shards:1 ~policy ~with_origins:prov (fun eng ->
          List.iter
            (fun (s : Ingest.source) ->
              Engine.register_tenant eng ~pid:s.Ingest.src_pid
                ~name:s.Ingest.src_name ())
            sources;
          let merged =
            chunked (Ingest.merge sources) chunk (fun () -> incr pulled)
          in
          let exhausted = ref false and budget = ref 0 in
          let stream () =
            let it =
              if !budget = 0 then None
              else
                match merged ~span:"ingest.pull" () with
                | None ->
                    exhausted := true;
                    None
                | Some it ->
                    decr budget;
                    Some it
            in
            (* End of stream (or of the segment's budget): the engine
               now drains its queues; the span closes when [run]
               returns. *)
            if Option.is_none it then Spans.enter "engine.drain";
            it
          in
          while not !exhausted do
            budget := (match segment with Some n -> n | None -> max_int);
            Spans.with_ "engine.run" (fun () ->
                Engine.run eng stream;
                (* engine.drain *)
                Spans.leave ());
            c.segments <- c.segments + 1;
            match snap with
            | None -> ()
            | Some path ->
                let t0 = now () in
                Spans.with_ "snapshot.write" (fun () ->
                    Admin.save_snapshot
                      ~sources:(Snapshot.source_entries sources)
                      eng path);
                c.snap_writes <- (now () -. t0) :: c.snap_writes;
                c.snap_bytes <- file_size path
          done;
          c.merged <- !pulled;
          let st = Admin.stats eng in
          c.batches <- st.Admin.st_batches;
          c.max_depth <-
            List.fold_left
              (fun a (s : Admin.shard_stats) -> max a s.Admin.ss_max_queue_depth)
              0 st.Admin.st_shards;
          c.dropped <- st.Admin.st_dropped;
          String.concat ""
            (List.map
               (fun (s : Ingest.source) ->
                 match Admin.snapshot_tenant eng ~pid:s.Ingest.src_pid with
                 | None -> ""
                 | Some ts ->
                     block ~name:ts.Admin.ts_name ~prov
                       (List.map
                          (fun (v : Admin.verdict) ->
                            (v.Admin.v_kind, v.Admin.v_flagged, v.Admin.v_origins))
                          ts.Admin.ts_verdicts)
                       ts.Admin.ts_stats)
               sources)))

let restore_time ~policy ~prov path =
  Engine.with_engine ~shards:1 ~policy ~with_origins:prov (fun eng ->
      let t0 = now () in
      let snap = Snapshot.load path in
      Snapshot.restore_tenants eng snap;
      now () -. t0)

(* A recording as the engine's item stream (pids unchanged). *)
let engine_items r =
  let src = Ingest.of_recorded ~pid:r.Recorded.pid r in
  let next = Recorded.items r in
  let rec all acc =
    match next () with
    | Some it -> all (Ingest.to_engine_item src it :: acc)
    | None -> Array.of_list (List.rev acc)
  in
  all []

(* Layer-split leg over the grid: record each app, then stage every
   (cell, app) replay through tracker, store and sink. *)
let split_grid c ~nis ~nts apps =
  Spans.with_ "split" (fun () ->
      let recs =
        List.map
          (fun app ->
            let r = Spans.with_ "record" (fun () -> Recorded.record app) in
            c.recorded <- c.recorded + Trace.length r.Recorded.trace;
            (app, Spans.with_ "bench.setup" (fun () -> engine_items r)))
          apps
      in
      let cells =
        List.concat_map
          (fun ni ->
            List.map
              (fun nt ->
                let policy = Policy.make ~ni ~nt () in
                ( (ni, nt),
                  List.fold_left
                    (fun conf ((app : App.t), items) ->
                      let tn = tenant c ~policy ~prov:false in
                      stage c tn items (Array.length items);
                      let verdicts, _ = finish c tn in
                      classify ~leaky:app.App.leaky
                        ~flagged:(List.exists (fun (_, f, _) -> f) verdicts)
                        conf)
                    empty recs ))
              nts)
          nis
      in
      cells_text cells)

(* Pool leg: the real [Accuracy.sweep ~jobs], timestamped per recorded
   app and per finished cell on the worker that finished it.  A worker
   claims cells back to back, so its busy time in a phase runs from the
   phase start to its last completion. *)
let pool_leg c ~nis ~nts apps =
  let mu = Mutex.create () in
  let recs = Hashtbl.create 4 and cells = Hashtbl.create 4 in
  let stamp tbl () =
    let d = (Domain.self () :> int) and t = now () in
    Mutex.lock mu;
    Hashtbl.replace tbl d t;
    Mutex.unlock mu
  in
  let t0 = now () in
  let s =
    Accuracy.sweep ~jobs:domains ~nis ~nts
      ~progress:(fun _ _ -> stamp recs ())
      ~on_cell:(fun _ _ -> stamp cells ())
      apps
  in
  let wall = now () -. t0 in
  let last tbl = Hashtbl.fold (fun _ t a -> max a t) tbl t0 in
  let grid_start = last recs in
  let busy tbl from = Hashtbl.fold (fun _ t a -> a +. (t -. from)) tbl 0. in
  c.busy_share <-
    (busy recs t0 +. busy cells grid_start) /. (wall *. float_of_int domains);
  (cells_text s.Accuracy.cells, wall)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

(* The highest percentile with at least 10 samples beyond it; the
   maximum when there are too few samples for one. *)
let tail l =
  let s = Array.of_list (List.sort compare l) in
  let n = Array.length s in
  if n = 0 then (0., 0.)
  else if n <= 10 then (s.(n - 1), 100.)
  else
    let k = n - 11 in
    (s.(k), 100. *. float_of_int (k + 1) /. float_of_int n)

(* Bare vs instrumented tracker replay over a sample of the workload's
   items: what telemetry and profiling cost on the hot path. *)
let obs_overheads ~policy sample =
  let events =
    List.fold_left
      (fun a items ->
        Array.fold_left
          (fun a -> function Engine.I_event _ -> a + 1 | _ -> a)
          a items)
      0 sample
  in
  let replay mk =
    let t0 = now () in
    List.iter
      (fun items ->
        let tr = mk () in
        Array.iter
          (function
            | Engine.I_event e -> Tracker.observe tr e
            | Engine.I_source { pid; kind; range } ->
                Tracker.taint_source ~kind tr ~pid range
            | _ -> ())
          items)
      sample;
    now () -. t0
  in
  let med f = median (List.init 5 (fun _ -> f ())) in
  let bare = med (fun () -> replay (fun () -> Tracker.create ~policy ())) in
  let tele =
    med (fun () ->
        let telemetry = Pift_obs.Telemetry.create () in
        replay (fun () -> Tracker.create ~policy ~telemetry ()))
  in
  let prof =
    med (fun () ->
        let profile = Pift_obs.Profile.create () in
        replay (fun () -> Tracker.create ~policy ~profile ()))
  in
  (float_of_int events /. bare, (tele /. bare) -. 1., (prof /. bare) -. 1.)

(* Up to [limit] converted items per fixture file, from its start. *)
let sample_files files limit =
  List.mapi
    (fun i path ->
      let src = Ingest.of_file ~pid:(Ingest.tenant_pid i) path in
      Fun.protect
        ~finally:(fun () -> Ingest.close src)
        (fun () ->
          let rec go n acc =
            if n = 0 then acc
            else
              match src.Ingest.src_next () with
              | Some it -> go (n - 1) (Ingest.to_engine_item src it :: acc)
              | None -> acc
          in
          Array.of_list (List.rev (go limit []))))
    files

let trace w dir seconds =
  let policy = policy_of w and prov = prov_of w in
  let deadline = now () +. seconds in
  let passes = ref [] in
  let outputs = ref [] in
  let rec pass i =
    Spans.reset ();
    Gc.compact ();
    let c = fresh () in
    (match w with
    | Fanin | Durable ->
        let files = fixture_files dir in
        let segment, snap =
          if w = Durable then
            ( Some (segment_of dir),
              Some (Filename.concat dir "trace.piftsnap") )
          else (None, None)
        in
        let t0 = now () in
        let engine_out =
          Spans.with_ "engine.leg" (fun () ->
              engine_leg c ~policy ~prov ~segment ~snap files)
        in
        c.engine_wall <- now () -. t0;
        c.engine_run <- Spans.sum_dur "engine.run";
        (match snap with
        | Some path -> c.restore_s <- restore_time ~policy ~prov path
        | None -> ());
        Gc.compact ();
        let t0 = now () in
        let split_out = split_files c ~policy ~prov files in
        c.split_wall <- now () -. t0;
        outputs := (i, "engine", engine_out) :: (i, "split", split_out) :: !outputs
    | Grid ->
        let nis, nts, apps = grid_fixture dir in
        let pool_out, wall = pool_leg c ~nis ~nts apps in
        c.engine_wall <- wall;
        let t0 = now () in
        let split_out = split_grid c ~nis ~nts apps in
        c.split_wall <- now () -. t0;
        outputs := (i, "pool", pool_out) :: (i, "split", split_out) :: !outputs);
    passes := (c, Spans.self_times ()) :: !passes;
    if now () < deadline && i < 50 then pass (i + 1)
  in
  pass 0;
  let sample =
    match w with
    | Fanin | Durable ->
        let files = fixture_files dir in
        sample_files files (250_000 / List.length files)
    | Grid ->
        let _, _, apps = grid_fixture dir in
        (* The suite's traces are short: replay it until the sample
           holds as many events as the serve workloads' samples. *)
        let apps = List.concat (List.init 12 (fun _ -> apps)) in
        List.map (fun app -> engine_items (Recorded.record app)) apps
  in
  let bare_eps, tele, prof = obs_overheads ~policy sample in
  (* Every pass's outputs, for the oracle check; the last pass's spans. *)
  List.iter
    (fun (i, leg, text) ->
      write_file
        (Filename.concat dir (Printf.sprintf "trace-%s-%d.txt" leg i))
        text)
    !outputs;
  write_file (Filename.concat dir "spans.json")
    (Json.to_string (Spans.to_json ()) ^ "\n");
  let passes = List.rev !passes in
  (* Per-pass values; the reported figure is the median over passes. *)
  let self name (_, st) = Option.value ~default:0. (Hashtbl.find_opt st name) in
  let m f = median (List.map f passes) in
  let cnt f = m (fun (c, _) -> float_of_int (f c)) in
  let sum_stats f (c, _) =
    float_of_int (List.fold_left (fun a s -> a + f s) 0 c.stats)
  in
  let max_stats f (c, _) =
    float_of_int (List.fold_left (fun a s -> max a (f s)) 0 c.stats)
  in
  let serve = w <> Grid in
  let files = if serve then fixture_files dir else [] in
  (* The consumer's work, timed one layer at a time in the split leg,
     against the engine leg's run time. *)
  let consumer_idle (c, _ as p) =
    let busy =
      List.fold_left (fun a n -> a +. self n p) 0.
        [ "tracker.observe"; "store.op"; "provenance.observe"; "sink.check" ]
    in
    if c.engine_run > 0. then max 0. (1. -. (busy /. c.engine_run)) else 0.
  in
  (* Reconciliation: the legs' walls minus the benchmark's own
     measurement work, against the sum of the layers' self times. *)
  let layers =
    [ "trace_io.decode"; "ingest.pull"; "ingest.convert"; "engine.run";
      "engine.drain"; "snapshot.write"; "tracker.observe"; "store.op";
      "provenance.observe"; "sink.check"; "record" ]
  in
  let wall (c, _ as p) =
    (if serve then c.engine_wall else 0.) +. c.split_wall
    -. self "bench.store_replay" p -. self "bench.setup" p
  in
  let unaccounted p =
    1. -. (List.fold_left (fun a n -> a +. self n p) 0. layers /. wall p)
  in
  let snaps = List.concat_map (fun (c, _) -> c.snap_writes) passes in
  let snap_tail, snap_pct = tail snaps in
  let metrics =
    [
      ("trace_io.decode_s", "s", m (self "trace_io.decode"));
      ("trace_io.items", "count", cnt (fun c -> c.decoded));
      ( "trace_io.bytes", "bytes",
        float_of_int (List.fold_left (fun a f -> a + file_size f) 0 files) );
      ("ingest.merge_s", "s", m (self "ingest.pull"));
      ("ingest.items", "count", cnt (fun c -> c.merged));
      ("ingest.sources", "count", float_of_int (List.length files));
      ("engine.produce_s", "s", m (self "engine.run"));
      ("engine.drain_s", "s", m (self "engine.drain"));
      ("engine.batches", "count", cnt (fun c -> c.batches));
      ("engine.max_queue_depth", "batches", cnt (fun c -> c.max_depth));
      ("engine.dropped", "count", cnt (fun c -> c.dropped));
      ("engine.consumer_idle_share", "share", m consumer_idle);
      ("engine.segments", "count", cnt (fun c -> c.segments));
      ("tracker.observe_s", "s", m (self "tracker.observe"));
      ("tracker.events", "count", m (sum_stats (fun s -> s.Tracker.events)));
      ("tracker.lookups", "count", m (sum_stats (fun s -> s.Tracker.lookups)));
      ("tracker.taint_ops", "count", m (sum_stats (fun s -> s.Tracker.taint_ops)));
      ( "tracker.untaint_ops", "count",
        m (sum_stats (fun s -> s.Tracker.untaint_ops)) );
      ("tracker.bare_events_per_s", "events/s", bare_eps);
      ("store.op_s", "s", m (self "store.op"));
      ("store.ops", "count", cnt (fun c -> c.store_ops));
      ("store.creates", "count", cnt (fun c -> c.creates));
      ("store.max_ranges", "count", m (max_stats (fun s -> s.Tracker.max_ranges)));
      ( "store.max_tainted_bytes", "bytes",
        m (max_stats (fun s -> s.Tracker.max_tainted_bytes)) );
      ("provenance.observe_s", "s", m (self "provenance.observe"));
      ("provenance.labels", "count", cnt (fun c -> c.labels));
      ("sink.check_s", "s", m (self "sink.check"));
      ("sink.checks", "count", cnt (fun c -> c.sinks));
      ("snapshot.write_s", "s", median snaps);
      ("snapshot.write_tail_s", "s", snap_tail);
      ("snapshot.count", "count", cnt (fun c -> List.length c.snap_writes));
      ("snapshot.bytes", "bytes", cnt (fun c -> c.snap_bytes));
      ("snapshot.restore_s", "s", m (fun (c, _) -> c.restore_s));
      ("record.s", "s", m (self "record"));
      ("record.events", "count", cnt (fun c -> c.recorded));
      ("pool.busy_share", "share", m (fun (c, _) -> c.busy_share));
      ("obs.telemetry_overhead_share", "share", tele);
      ("obs.profile_overhead_share", "share", prof);
      ("trace.unaccounted_share", "share", m unaccounted);
      ("trace.wall_s", "s", m wall);
      ( "trace.events_per_s", "events/s",
        m (fun (c, _ as p) ->
            sum_stats (fun s -> s.Tracker.events) p /. c.engine_wall) );
    ]
  in
  (* The reconciliation table of the last pass, for the reader. *)
  let last = List.nth passes (List.length passes - 1) in
  List.iter
    (fun n -> Printf.printf "# layer %-20s self %.4f s\n" n (self n last))
    layers;
  Printf.printf "# pipeline wall %.4f s, unaccounted share %.4f\n" (wall last)
    (unaccounted last);
  print_json
    (Json.Obj
       [
         ("passes", Json.Int (List.length passes));
         ("snapshot_tail_percentile", Json.Float snap_pct);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, u, v) ->
                  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                metrics) );
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "info" ] ->
      print_json
        (Json.Obj
           [
             ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
             ("ocaml_version", Json.String Sys.ocaml_version);
             ("domains", Json.Int domains);
           ])
  | "gen" :: w :: seed :: dir :: rest ->
      gen (workload_of_string w) (int_of_string seed) dir ~tiny:(rest = [ "tiny" ])
  | [ "sweep-run"; dir; seconds ] -> sweep_run dir (float_of_string seconds)
  | [ "trace"; w; dir; seconds ] ->
      trace (workload_of_string w) dir (float_of_string seconds)
  | _ ->
      prerr_endline
        "usage: pbench (info | gen WORKLOAD SEED DIR [tiny] | sweep-run DIR \
         SECONDS | trace WORKLOAD DIR SECONDS)";
      exit 2
