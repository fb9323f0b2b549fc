module Range = Pift_util.Range
module Event = Pift_trace.Event
module Recorded = Pift_eval.Recorded
module Trace_io = Pift_eval.Trace_io

type source = {
  src_name : string;
  src_path : string option;  (* None for in-memory recordings *)
  src_pid : int;  (* pid the engine sees *)
  src_orig_pid : int;  (* pid recorded in the trace *)
  src_next : unit -> Recorded.item option;
  src_pull :
    on_event:Trace_io.on_event -> on_marker:Trace_io.on_marker -> bool;
  src_close : unit -> unit;
  (* Ingest cursor: items the engine processed (or skipped on resume).
     [run] reads nothing ahead, so a snapshot records exactly the
     processed prefix. *)
  mutable src_emitted : int;
}

let tenant_pid ?(pid_range = 1 lsl 20) i =
  if i < 0 then invalid_arg "Ingest.tenant_pid: index must be non-negative";
  (i + 1) * pid_range

(* An item stream as a pull: events are unpacked into their fields. *)
let pull_of_next next ~(on_event : Trace_io.on_event) ~on_marker =
  match next () with
  | None -> false
  | Some (Recorded.Item_marker (seq, m)) ->
      on_marker seq m;
      true
  | Some (Recorded.Item_event (e : Event.t)) ->
      (match e.access with
      | Event.Load r ->
          on_event ~kind:Event.kind_load ~seq:e.seq ~k:e.k ~pid:e.pid
            ~lo:(Range.lo r) ~hi:(Range.hi r)
      | Event.Store r ->
          on_event ~kind:Event.kind_store ~seq:e.seq ~k:e.k ~pid:e.pid
            ~lo:(Range.lo r) ~hi:(Range.hi r)
      | Event.Other ->
          on_event ~kind:Event.kind_other ~seq:e.seq ~k:e.k ~pid:e.pid ~lo:0
            ~hi:0);
      true

let of_recorded ~pid (r : Recorded.t) =
  let next = Recorded.items r in
  {
    src_name = r.Recorded.name;
    src_path = None;
    src_pid = pid;
    src_orig_pid = r.Recorded.pid;
    src_next = next;
    src_pull = pull_of_next next;
    src_close = ignore;
    src_emitted = 0;
  }

let of_file ~pid path =
  let r = Trace_io.open_reader path in
  let h = Trace_io.reader_header r in
  {
    src_name = h.Trace_io.h_name;
    src_path = Some path;
    src_pid = pid;
    src_orig_pid = h.Trace_io.h_pid;
    src_next = (fun () -> Trace_io.read_item r);
    src_pull =
      (fun ~on_event ~on_marker -> Trace_io.pull r ~on_event ~on_marker);
    src_close = (fun () -> Trace_io.close_reader r);
    src_emitted = 0;
  }

let close s = s.src_close ()
let cursor s = s.src_emitted

let skip_event ~kind:_ ~seq:_ ~k:_ ~pid:_ ~lo:_ ~hi:_ = ()
let skip_marker _ _ = ()

(* Resume: discard the items a previous run already consumed (per its
   snapshot cursor), so the next emission is the first unseen item.
   The source must still contain them — a trace shrinking between
   snapshot and restart is corruption, not a clean resume. *)
let skip s n =
  if n < 0 then invalid_arg "Ingest.skip: negative cursor";
  for _ = 1 to n do
    if s.src_pull ~on_event:skip_event ~on_marker:skip_marker then
      s.src_emitted <- s.src_emitted + 1
    else
      failwith
        (Printf.sprintf
           "Ingest.skip: source %s ended before cursor %d (trace changed \
            since snapshot?)"
           s.src_name n)
  done

(* Remap a recorded item onto the source's assigned engine pid.  The
   recording's events may carry child pids (fork); preserving the
   offset from the recorded main pid keeps distinct processes distinct
   inside the tenant's pid block. *)
let to_engine_item s (item : Recorded.item) : Engine.item =
  match item with
  | Recorded.Item_event e ->
      Engine.I_event
        { e with Event.pid = e.Event.pid - s.src_orig_pid + s.src_pid }
  | Recorded.Item_marker (_, Recorded.Source { kind; range }) ->
      Engine.I_source { pid = s.src_pid; kind; range }
  | Recorded.Item_marker (_, Recorded.Sink { kind; ranges }) ->
      Engine.I_sink { pid = s.src_pid; kind; ranges }

let item_seq = function
  | Recorded.Item_event e -> e.Event.seq
  | Recorded.Item_marker (seq, _) -> seq

(* Deterministic interleave of the per-source streams: repeatedly emit
   the head with the smallest (seq, source index), so the earlier-listed
   source wins ties.  Only {e head} order across sources is decided
   here; within one source the items come out in stream order, which is
   all per-tenant determinism needs.  The seq of a marker is its
   recorded occurrence seq, so markers compete in the same time axis as
   events.

   The live sources sit in a binary min-heap of source indices keyed on
   their head's (seq, index).  Reads happen exactly when the plain
   all-heads scan would make them: the first pull fills every source in
   index order, and after that only the source just emitted is refilled,
   lazily, at the next pull.  It is still the heap's root then, so the
   refill is one sift-down (or a removal when the source has ended).
   A read that raises leaves the state as it was, so a retry re-reads
   the same source. *)
let merge sources : Engine.stream =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let dummy = Recorded.Item_marker (0, Recorded.Sink { kind = ""; ranges = [] }) in
  let heads = Array.make n dummy in
  let seqs = Array.make n 0 in
  let heap = Array.make n 0 in
  let size = ref 0 in
  let filled = ref 0 in  (* sources 0 .. filled-1 have had their first read *)
  let emitted = ref false in  (* the root's head went out; refill first *)
  let before i j = seqs.(i) < seqs.(j) || (seqs.(i) = seqs.(j) && i < j) in
  let rec sift_down k =
    let l = (2 * k) + 1 in
    if l < !size then begin
      let r = l + 1 in
      let c = if r < !size && before heap.(r) heap.(l) then r else l in
      if before heap.(c) heap.(k) then begin
        let x = heap.(k) in
        heap.(k) <- heap.(c);
        heap.(c) <- x;
        sift_down c
      end
    end
  in
  let rec sift_up k =
    if k > 0 then begin
      let p = (k - 1) / 2 in
      if before heap.(k) heap.(p) then begin
        let x = heap.(k) in
        heap.(k) <- heap.(p);
        heap.(p) <- x;
        sift_up p
      end
    end
  in
  fun () ->
    while !filled < n do
      let i = !filled in
      (match srcs.(i).src_next () with
      | Some it ->
          heads.(i) <- it;
          seqs.(i) <- item_seq it;
          heap.(!size) <- i;
          incr size;
          sift_up (!size - 1)
      | None -> ());
      incr filled
    done;
    if !emitted then begin
      let i = heap.(0) in
      (match srcs.(i).src_next () with
      | Some it ->
          heads.(i) <- it;
          seqs.(i) <- item_seq it
      | None ->
          decr size;
          heap.(0) <- heap.(!size));
      emitted := false;
      sift_down 0
    end;
    if !size = 0 then None
    else begin
      let i = heap.(0) in
      emitted := true;
      srcs.(i).src_emitted <- srcs.(i).src_emitted + 1;
      Some (to_engine_item srcs.(i) heads.(i))
    end

(* Feed source [s] to its tenant until it ends or [left] items are
   spent; returns the unspent budget, so a positive result means the
   source ended.  The decoder hands each event straight to the engine
   as ints, through callbacks built once here.  The cursor is counted
   in a local and stored once, also on failure: sources of different
   shards sit side by side in memory, and a per-item store would bounce
   their cache line between domains.  The failing item of a pid-block
   error is the one after those fed. *)
let pump engine s left =
  let ln = Engine.lane engine ~pid:s.src_pid ~orig_pid:s.src_orig_pid in
  let on_event ~kind ~seq ~k ~pid ~lo ~hi =
    Engine.feed_event engine ln ~kind ~seq ~k ~pid ~lo ~hi
  and on_marker _seq m = Engine.feed_marker engine ln m in
  let fed = ref 0 in
  let rec go left =
    if left = 0 then 0
    else if s.src_pull ~on_event ~on_marker then begin
      incr fed;
      go (left - 1)
    end
    else left
  in
  Fun.protect
    ~finally:(fun () -> s.src_emitted <- s.src_emitted + !fed)
    (fun () ->
      try go left
      with Engine.Pid_outside_block pid ->
        failwith
          (Printf.sprintf
             "Ingest: source %s item %d: pid %d is outside the tenant's \
              pid block"
             s.src_name
             (s.src_emitted + !fed + 1)
             pid))

(* One shard's share of a segment, on the shard's own slot: its pending
   sources one after another, at most [budget] (> 0) items in all.
   Returns [true] once every source has ended with budget to spare. *)
let drain engine pending i budget =
  let rec go left =
    match pending.(i) with
    | [] -> true
    | s :: rest ->
        let left = pump engine s left in
        if left = 0 then false
        else begin
          pending.(i) <- rest;
          go left
        end
  in
  go budget

let run ?segment ?on_idle engine sources =
  let idle () = match on_idle with Some f -> f () | None -> () in
  Fun.protect
    ~finally:(fun () -> List.iter close sources)
    (fun () ->
      List.iter
        (fun s ->
          Engine.register_tenant engine ~pid:s.src_pid ~name:s.src_name ())
        sources;
      let budget =
        match segment with
        | None -> max_int
        | Some n ->
            if n <= 0 then invalid_arg "Ingest.run: segment must be positive";
            n
      in
      (* Each shard owns the sources of its tenants, in list order. *)
      let shards = Engine.shards engine in
      let pending = Array.make shards [] in
      List.iter
        (fun s ->
          let i = Engine.shard_of engine s.src_pid in
          pending.(i) <- s :: pending.(i))
        (List.rev sources);
      (* Every segment joins all shards before [on_idle], so the hook
         always sees a quiescent engine — the only state a snapshot may
         capture. *)
      let ended = Array.make shards false in
      let rec segments () =
        Engine.run_shards engine (fun i ->
            ended.(i) <- drain engine pending i budget);
        idle ();
        if not (Array.for_all Fun.id ended) then segments ()
      in
      segments ())
