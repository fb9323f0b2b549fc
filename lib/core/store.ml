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

let create ?(backend = Flat) () =
  let sets : (int, Store_backend.set) Hashtbl.t = Hashtbl.create 4 in
  (* Mutating paths may materialise a backend set for a new PID; read
     paths must not — a sink check on a never-seen PID would otherwise
     grow the table and inflate range_count/memory on pure queries. *)
  let set pid =
    match Hashtbl.find_opt sets pid with
    | Some s -> s
    | None ->
        let s = Store_backend.make backend in
        Hashtbl.add sets pid s;
        s
  in
  let peek pid = Hashtbl.find_opt sets pid in
  (* Store-wide totals are maintained per-op from the single touched
     set's O(1) counters instead of re-folding the whole table: the
     tracker reads both on every taint/untaint op (update_peaks), which
     made the old Hashtbl.fold quadratic-ish on multi-PID replays. *)
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
    (* Snapshot extraction: every pid's canonical range list, sorted by
       pid so the dump is deterministic whatever the Hashtbl order.
       Pids whose set emptied out are omitted — a restored store is
       semantically identical (overlaps/ranges/counters agree), it just
       doesn't resurrect empty per-pid sets. *)
    dump =
      (fun () ->
        List.sort
          (fun (p1, _) (p2, _) -> compare (p1 : int) p2)
          (Hashtbl.fold
             (fun pid s acc ->
               match s.Store_backend.s_ranges () with
               | [] -> acc
               | rs -> (pid, rs) :: acc)
             sets []));
  }

let with_metrics registry inner =
  let module Counter = Pift_obs.Metric.Counter in
  let module Gauge = Pift_obs.Metric.Gauge in
  let c help name = Pift_obs.Registry.counter registry ~help name in
  let adds = c "range insertions into the taint store" "pift_store_add_ops_total" in
  let removes = c "range removals from the taint store" "pift_store_remove_ops_total" in
  let merges =
    c "insertions coalesced into an existing range"
      "pift_store_merge_ops_total"
  in
  let ranges_gauge =
    Pift_obs.Registry.gauge registry ~help:"distinct ranges held by the store"
      "pift_store_ranges"
  in
  let sync () = Gauge.set ranges_gauge (inner.range_count ()) in
  {
    inner with
    add =
      (fun ~pid r ->
        let before = inner.range_count () in
        inner.add ~pid r;
        Counter.incr adds;
        (* A merge (or full overlap) is an insertion that did not grow the
           range count — the coalescing path of a backend's add / the
           range-cache update of Storage.insert. *)
        if inner.range_count () <= before then Counter.incr merges;
        sync ());
    remove =
      (fun ~pid r ->
        inner.remove ~pid r;
        Counter.incr removes;
        sync ());
    release_pid =
      (fun ~pid ->
        inner.release_pid ~pid;
        sync ());
  }

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
