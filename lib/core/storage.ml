module Range = Pift_util.Range
module Counter = Pift_obs.Metric.Counter
module Gauge = Pift_obs.Metric.Gauge

type eviction = Lru_writeback | Drop

type meters = {
  m_lookups : Counter.t;
  m_hits : Counter.t;
  m_secondary_hits : Counter.t;
  m_insertions : Counter.t;
  m_evictions : Counter.t;
  m_drops : Counter.t;
  m_writebacks : Counter.t;
  m_occupancy : Gauge.t;
}

let meters_of registry =
  let c help name = Pift_obs.Registry.counter registry ~help name in
  {
    m_lookups = c "range-cache lookups" "pift_storage_lookups_total";
    m_hits = c "primary (on-chip) hits" "pift_storage_primary_hits_total";
    m_secondary_hits =
      c "secondary (main-memory) hits after a primary miss"
        "pift_storage_secondary_hits_total";
    m_insertions = c "range-cache insertions" "pift_storage_insertions_total";
    m_evictions = c "LRU evictions" "pift_storage_evictions_total";
    m_drops = c "insertions dropped when full" "pift_storage_drops_total";
    m_writebacks =
      c "entries written back to secondary storage"
        "pift_storage_writebacks_total";
    m_occupancy =
      Pift_obs.Registry.gauge registry ~help:"valid primary entries"
        "pift_storage_occupancy";
  }

type slot = {
  mutable pid : int;
  mutable lo : int;
  mutable hi : int;
  mutable valid : bool;
  mutable stamp : int;
}

type stats = {
  lookups : int;
  hits : int;
  secondary_hits : int;
  insertions : int;
  evictions : int;
  drops : int;
  writebacks : int;
  max_occupancy : int;
}

type t = {
  slots : slot array;
  eviction : eviction;
  granularity : int option;
  (* Secondary storage in main memory, per process. *)
  secondary : (int, Range_set.t) Hashtbl.t;
  mutable clock : int;
  mutable occupancy : int;
  mutable lookups : int;
  mutable hits : int;
  mutable secondary_hits : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable drops : int;
  mutable writebacks : int;
  mutable max_occupancy : int;
  meters : meters option;
}

let meter t f = match t.meters with None -> () | Some m -> f m

let set_occupancy t v =
  t.occupancy <- v;
  meter t (fun m -> Gauge.set m.m_occupancy v)

let create ?(entries = 2730) ?(eviction = Lru_writeback)
    ?(granularity = None) ?metrics () =
  if entries <= 0 then invalid_arg "Storage.create: entries must be positive";
  (match granularity with
  | Some r when r < 0 || r > 20 ->
      invalid_arg "Storage.create: granularity out of range"
  | Some _ | None -> ());
  {
    slots =
      Array.init entries (fun _ ->
          { pid = 0; lo = 0; hi = 0; valid = false; stamp = 0 });
    eviction;
    granularity;
    secondary = Hashtbl.create 4;
    clock = 0;
    occupancy = 0;
    lookups = 0;
    hits = 0;
    secondary_hits = 0;
    insertions = 0;
    evictions = 0;
    drops = 0;
    writebacks = 0;
    max_occupancy = 0;
    meters = Option.map meters_of metrics;
  }

let align t r =
  match t.granularity with
  | None -> r
  | Some g ->
      let block = 1 lsl g in
      let lo = Range.lo r / block * block in
      let hi = ((Range.hi r / block) + 1) * block - 1 in
      Range.make lo hi

let secondary_set t pid =
  Option.value (Hashtbl.find_opt t.secondary pid) ~default:Range_set.empty

let write_back t pid r =
  Hashtbl.replace t.secondary pid (Range_set.add (secondary_set t pid) r)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Find a free slot, evicting if necessary.  Returns [None] when the
   entry had to be dropped. *)
let free_slot t =
  let free = ref None in
  Array.iter
    (fun s -> if (not s.valid) && !free = None then free := Some s)
    t.slots;
  match !free with
  | Some s -> Some s
  | None -> (
      match t.eviction with
      | Drop ->
          t.drops <- t.drops + 1;
          meter t (fun m -> Counter.incr m.m_drops);
          None
      | Lru_writeback ->
          let victim =
            Array.fold_left
              (fun acc s ->
                match acc with
                | None -> Some s
                | Some best -> if s.stamp < best.stamp then Some s else acc)
              None t.slots
          in
          let s = Option.get victim in
          write_back t s.pid (Range.make s.lo s.hi);
          t.evictions <- t.evictions + 1;
          t.writebacks <- t.writebacks + 1;
          meter t (fun m ->
              Counter.incr m.m_evictions;
              Counter.incr m.m_writebacks);
          s.valid <- false;
          set_occupancy t (t.occupancy - 1);
          Some s)

let fill slot ~pid ~lo ~hi ~stamp =
  slot.pid <- pid;
  slot.lo <- lo;
  slot.hi <- hi;
  slot.stamp <- stamp;
  slot.valid <- true

let insert t ~pid r =
  let r = align t r in
  t.insertions <- t.insertions + 1;
  meter t (fun m -> Counter.incr m.m_insertions);
  (* Merge with an existing overlapping-or-adjacent entry when possible
     (the range-cache update of Tiwari et al. [17]); otherwise allocate. *)
  let merged = ref false in
  Array.iter
    (fun s ->
      if
        (not !merged) && s.valid && s.pid = pid
        &&
        let e = Range.make s.lo s.hi in
        Range.overlaps e r || Range.adjacent e r
      then begin
        s.lo <- min s.lo (Range.lo r);
        s.hi <- max s.hi (Range.hi r);
        s.stamp <- tick t;
        merged := true
      end)
    t.slots;
  if not !merged then
    match free_slot t with
    | None -> ()
    | Some slot ->
        fill slot ~pid ~lo:(Range.lo r) ~hi:(Range.hi r) ~stamp:(tick t);
        set_occupancy t (t.occupancy + 1);
        if t.occupancy > t.max_occupancy then t.max_occupancy <- t.occupancy

let remove t ~pid r =
  let r = align t r in
  (* Trim every overlapping primary entry; a middle cut leaves two pieces,
     the second of which needs a fresh slot. *)
  let pending = ref [] in
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid && Range.overlaps (Range.make s.lo s.hi) r
      then begin
        let pieces = Range.subtract (Range.make s.lo s.hi) r in
        match pieces with
        | [] ->
            s.valid <- false;
            set_occupancy t (t.occupancy - 1)
        | [ p ] ->
            s.lo <- Range.lo p;
            s.hi <- Range.hi p
        | p1 :: rest ->
            s.lo <- Range.lo p1;
            s.hi <- Range.hi p1;
            pending := rest @ !pending
      end)
    t.slots;
  List.iter (fun p -> insert t ~pid p) !pending;
  (* Secondary storage is exact. *)
  match Hashtbl.find_opt t.secondary pid with
  | Some set -> Hashtbl.replace t.secondary pid (Range_set.remove set r)
  | None -> ()

let primary_lookup t ~pid r =
  let hit = ref false in
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid && Range.overlaps (Range.make s.lo s.hi) r
      then begin
        s.stamp <- tick t;
        hit := true
      end)
    t.slots;
  !hit

let lookup t ~pid r =
  let r = align t r in
  t.lookups <- t.lookups + 1;
  meter t (fun m -> Counter.incr m.m_lookups);
  if primary_lookup t ~pid r then begin
    t.hits <- t.hits + 1;
    meter t (fun m -> Counter.incr m.m_hits);
    true
  end
  else
    match t.eviction with
    | Drop -> false
    | Lru_writeback -> (
        match Hashtbl.find_opt t.secondary pid with
        | Some set when Range_set.mem_overlap set r ->
            t.secondary_hits <- t.secondary_hits + 1;
            meter t (fun m -> Counter.incr m.m_secondary_hits);
            (* Promote: hardware refetches the matching range. *)
            let promoted =
              List.find_opt
                (fun p -> Range.overlaps p r)
                (Range_set.ranges set)
            in
            (match promoted with
            | Some p ->
                Hashtbl.replace t.secondary pid (Range_set.remove set p);
                insert t ~pid p
            | None -> ());
            true
        | Some _ | None -> false)

let release_pid t ~pid =
  (* Tenant eviction: invalidate the pid's primary entries (keeping the
     occupancy gauge honest) and drop its secondary set outright — no
     writeback, the state is being discarded, not displaced. *)
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid then begin
        s.valid <- false;
        set_occupancy t (t.occupancy - 1)
      end)
    t.slots;
  Hashtbl.remove t.secondary pid

let context_switch t =
  Array.iter
    (fun s ->
      if s.valid then begin
        write_back t s.pid (Range.make s.lo s.hi);
        t.writebacks <- t.writebacks + 1;
        meter t (fun m -> Counter.incr m.m_writebacks);
        s.valid <- false
      end)
    t.slots;
  set_occupancy t 0

let occupancy t = t.occupancy

(* Exact union across (possibly overlapping) primary entries plus the
   secondary store. *)
let union_set t =
  let set = ref Range_set.empty in
  Array.iter
    (fun s ->
      if s.valid then set := Range_set.add !set (Range.make s.lo s.hi))
    t.slots;
  Hashtbl.iter
    (fun _ sec ->
      List.iter
        (fun r -> set := Range_set.add !set r)
        (Range_set.ranges sec))
    t.secondary;
  !set

let tainted_bytes t = Range_set.total_bytes (union_set t)
let range_count t = Range_set.cardinal (union_set t)

let ranges t ~pid =
  let set = ref Range_set.empty in
  Array.iter
    (fun s ->
      if s.valid && s.pid = pid then
        set := Range_set.add !set (Range.make s.lo s.hi))
    t.slots;
  (match Hashtbl.find_opt t.secondary pid with
  | Some sec ->
      List.iter
        (fun r -> set := Range_set.add !set r)
        (Range_set.ranges sec)
  | None -> ());
  Range_set.ranges !set

let stats t =
  {
    lookups = t.lookups;
    hits = t.hits;
    secondary_hits = t.secondary_hits;
    insertions = t.insertions;
    evictions = t.evictions;
    drops = t.drops;
    writebacks = t.writebacks;
    max_occupancy = t.max_occupancy;
  }
