module Range = Pift_util.Range

type backend = Store_backend.backend = Flat | Functional | Bytemap

let backend_to_string = Store_backend.backend_to_string
let all_backends = Store_backend.all_backends

type t = {
  add : pid:int -> Range.t -> unit;
  remove : pid:int -> Range.t -> unit;
  overlaps : pid:int -> Range.t -> bool;
  tainted_bytes : unit -> int;
  range_count : unit -> int;
  ranges : pid:int -> Range.t list;
  release_pid : pid:int -> unit;
  dump : unit -> (int * Range.t list) list;
}

(* Snapshot extraction: every pid's canonical range list, sorted by pid
   so the dump is deterministic whatever the Hashtbl order.  Pids whose
   set emptied out are omitted — a restored store is semantically
   identical (overlaps/ranges/counters agree), it just doesn't
   resurrect empty per-pid sets. *)
let dump_sets sets ranges () =
  List.sort
    (fun (p1, _) (p2, _) -> compare (p1 : int) p2)
    (Hashtbl.fold
       (fun pid s acc -> match ranges s with [] -> acc | rs -> (pid, rs) :: acc)
       sets [])

(* The last pid looked up and its set — [empty] when the pid has none,
   so read misses are cached too. *)
type cache = { mutable c_pid : int; mutable c_set : Store_flat.t }

(* The production store: one {!Store_flat} set per pid, called directly.
   A process's ops come in runs, so the last pid's set sits in a
   one-entry cache and the table is probed only on a pid switch.  The
   sets share one [totals] record, which every size change updates, so
   the store-wide counters cost nothing per op.  Mutating paths may
   materialise a set for a new pid; read paths must not — a sink check
   on a never-seen pid would otherwise grow the table and inflate
   range_count/memory on pure queries — so a read miss answers from the
   never-mutated [empty], and a mutation never takes [empty] from the
   cache. *)
let flat () =
  let totals = Store_flat.totals () in
  let sets : (int, Store_flat.t) Hashtbl.t = Hashtbl.create 4 in
  let empty = Store_flat.create () in
  let c = { c_pid = 0; c_set = empty } in
  let lookup pid =
    let s = try Hashtbl.find sets pid with Not_found -> empty in
    c.c_pid <- pid;
    c.c_set <- s;
    s
  in
  let set_slow pid =
    match lookup pid with
    | s when s != empty -> s
    | _ ->
        let s = Store_flat.create_in totals in
        Hashtbl.add sets pid s;
        c.c_set <- s;
        s
  in
  let[@inline] set pid =
    if pid = c.c_pid && c.c_set != empty then c.c_set else set_slow pid
  in
  let[@inline] peek pid = if pid = c.c_pid then c.c_set else lookup pid in
  {
    add = (fun ~pid r -> Store_flat.add (set pid) r);
    remove = (fun ~pid r -> Store_flat.remove (set pid) r);
    overlaps = (fun ~pid r -> Store_flat.mem_overlap (peek pid) r);
    tainted_bytes = (fun () -> Store_flat.bytes_of_totals totals);
    range_count = (fun () -> Store_flat.ranges_of_totals totals);
    ranges = (fun ~pid -> Store_flat.ranges (peek pid));
    release_pid =
      (fun ~pid ->
        match Hashtbl.find_opt sets pid with
        | None -> ()
        | Some s ->
            Store_flat.clear s;
            Hashtbl.remove sets pid;
            if pid = c.c_pid then c.c_set <- empty);
    dump = dump_sets sets Store_flat.ranges;
  }

(* The test references, over {!Store_backend} sets; store-wide totals
   are maintained per op from the touched set's O(1) counters. *)
let reference backend =
  let sets : (int, Store_backend.set) Hashtbl.t = Hashtbl.create 4 in
  let set pid =
    match Hashtbl.find_opt sets pid with
    | Some s -> s
    | None ->
        let s = Store_backend.make backend in
        Hashtbl.add sets pid s;
        s
  in
  let peek pid = Hashtbl.find_opt sets pid in
  let total_bytes = ref 0 in
  let total_count = ref 0 in
  let mutate pid op r =
    let s = set pid in
    let bytes = s.Store_backend.s_bytes ()
    and count = s.Store_backend.s_count () in
    op s r;
    total_bytes := !total_bytes + s.Store_backend.s_bytes () - bytes;
    total_count := !total_count + s.Store_backend.s_count () - count
  in
  {
    add = (fun ~pid r -> mutate pid (fun s -> s.Store_backend.s_add) r);
    remove = (fun ~pid r -> mutate pid (fun s -> s.Store_backend.s_remove) r);
    overlaps =
      (fun ~pid r ->
        match peek pid with
        | Some s -> s.Store_backend.s_overlaps r
        | None -> false);
    tainted_bytes = (fun () -> !total_bytes);
    range_count = (fun () -> !total_count);
    ranges =
      (fun ~pid ->
        match peek pid with
        | Some s -> s.Store_backend.s_ranges ()
        | None -> []);
    release_pid =
      (fun ~pid ->
        match peek pid with
        | None -> ()
        | Some s ->
            total_bytes := !total_bytes - s.Store_backend.s_bytes ();
            total_count := !total_count - s.Store_backend.s_count ();
            Hashtbl.remove sets pid);
    dump = dump_sets sets (fun s -> s.Store_backend.s_ranges ());
  }

let create ?(backend = Flat) () =
  match backend with
  | Flat -> flat ()
  | Functional | Bytemap -> reference backend

let of_storage storage =
  {
    add = (fun ~pid r -> Storage.insert storage ~pid r);
    remove = (fun ~pid r -> Storage.remove storage ~pid r);
    overlaps = (fun ~pid r -> Storage.lookup storage ~pid r);
    tainted_bytes = (fun () -> Storage.tainted_bytes storage);
    range_count = (fun () -> Storage.range_count storage);
    ranges = (fun ~pid -> Storage.ranges storage ~pid);
    release_pid = (fun ~pid -> Storage.release_pid storage ~pid);
    (* The range cache is lossy (drop policy) and not a durable source
       of truth; snapshotting it would silently persist a partial
       state, so it refuses instead. *)
    dump = (fun () -> failwith "Store.of_storage: dump unsupported");
  }
