(* Differential property suite for the taint store.

   The production store, Flat (imperative sorted interval array), and
   the two references, Functional (persistent Range_set) and Bytemap
   (bit-per-byte oracle), must be observationally identical.  Every
   case drives one random adversarial op sequence (see prop.ml) through
   all three and compares the full observable state after every single
   op; a divergence is shrunk to a minimal op sequence and printed with
   the replay seed.

   50 cases x 250 ops plus 10 x 1000 = 22,500 ops per run, well past
   the 10k floor, and the end-to-end test re-renders a DroidBench
   accuracy sweep on the production store and byte-compares the output
   against the Functional reference's. *)

module Range = Pift_util.Range
module Store_backend = Pift_core.Store_backend
module Store = Pift_core.Store

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ranges_to_string rs =
  "[" ^ String.concat "; " (List.map Range.to_string rs) ^ "]"

let state_to_string (s : Store_backend.set) =
  Printf.sprintf "bytes=%d count=%d ranges=%s"
    (s.Store_backend.s_bytes ())
    (s.Store_backend.s_count ())
    (ranges_to_string (s.Store_backend.s_ranges ()))

(* --- the differential property ----------------------------------------- *)

let apply (s : Store_backend.set) = function
  | Prop.Add r ->
      s.Store_backend.s_add r;
      None
  | Prop.Remove r ->
      s.Store_backend.s_remove r;
      None
  | Prop.Overlaps r -> Some (s.Store_backend.s_overlaps r)

(* Fold the sequence through every backend at once; after each op the
   oracle (Bytemap, trivially correct byte-level semantics) and every
   other backend must report the same overlap verdict, tainted-byte
   total, range count, and sorted canonical range list. *)
let differential ops =
  let sets =
    List.map
      (fun b -> (Store_backend.backend_to_string b, Store_backend.make b))
      Store_backend.all_backends
  in
  let oracle_name, oracle = List.hd (List.rev sets) in
  assert (String.equal oracle_name "bytemap");
  let exception Diverged of string in
  try
    List.iteri
      (fun i op ->
        let verdicts = List.map (fun (name, s) -> (name, apply s op)) sets in
        let _, expected = List.hd (List.rev verdicts) in
        List.iter
          (fun (name, v) ->
            if v <> expected then
              raise
                (Diverged
                   (Printf.sprintf
                      "op %d (%s): %s answered %s, oracle %s answered %s" i
                      (Prop.op_to_string op) name
                      (match v with
                      | Some b -> string_of_bool b
                      | None -> "-")
                      oracle_name
                      (match expected with
                      | Some b -> string_of_bool b
                      | None -> "-"))))
          verdicts;
        let want = state_to_string oracle in
        List.iter
          (fun (name, s) ->
            let got = state_to_string s in
            if not (String.equal got want) then
              raise
                (Diverged
                   (Printf.sprintf
                      "op %d (%s): %s state diverged@.  %s: %s@.  %s: %s" i
                      (Prop.op_to_string op) name name got oracle_name want)))
          sets)
      ops;
    Ok ()
  with Diverged msg -> Error msg

let test_differential () =
  Prop.check ~name:"store backends agree" ~count:50 ~len:250 differential

(* A second pass at a coarser granularity: longer sequences, fewer
   cases, still deterministic from the same seed. *)
let test_differential_long () =
  Prop.check ~name:"store backends agree (long)" ~count:10 ~len:1000
    differential

(* --- closed-interval (hi inclusive) regression ------------------------- *)

(* [hi] is the last tainted byte.  Two ranges meeting exactly at hi+1
   must coalesce into one canonical range; a single untainted byte
   between them must keep them separate.  A half-open drift in any
   backend flips one of these. *)
let test_closed_interval_adjacency () =
  List.iter
    (fun backend ->
      let name s = Store_backend.backend_to_string backend ^ ": " ^ s in
      let set = Store_backend.make backend in
      set.Store_backend.s_add (Range.make 0 15);
      set.Store_backend.s_add (Range.make 16 31);
      (* meets at hi + 1 *)
      checki (name "adjacent adds coalesce") 1 (set.Store_backend.s_count ());
      checki (name "coalesced bytes") 32 (set.Store_backend.s_bytes ());
      checkb (name "single canonical range") true
        (set.Store_backend.s_ranges () = [ Range.make 0 31 ]);
      set.Store_backend.s_add (Range.make 33 40);
      (* byte 32 stays clean: no coalesce across the gap *)
      checki (name "one-byte gap keeps ranges apart") 2
        (set.Store_backend.s_count ());
      checkb (name "gap byte clean") false
        (set.Store_backend.s_overlaps (Range.byte 32));
      checkb (name "last byte tainted") true
        (set.Store_backend.s_overlaps (Range.byte 40));
      checkb (name "past-the-end byte clean") false
        (set.Store_backend.s_overlaps (Range.byte 41));
      set.Store_backend.s_remove (Range.make 10 20);
      checkb (name "middle cut leaves closed stubs") true
        (set.Store_backend.s_ranges ()
        = [ Range.make 0 9; Range.make 21 31; Range.make 33 40 ]))
    Store_backend.all_backends

(* --- multi-process Store.create ---------------------------------------- *)

let test_store_per_pid_isolation () =
  List.iter
    (fun backend ->
      let name s = Store.backend_to_string backend ^ ": " ^ s in
      let store = Store.create ~backend () in
      store.Store.add ~pid:1 (Range.make 0 15);
      store.Store.add ~pid:2 (Range.make 8 23);
      checkb (name "pid 1 sees its range") true
        (store.Store.overlaps ~pid:1 (Range.make 12 30));
      checkb (name "pid 1 blind past its range") false
        (store.Store.overlaps ~pid:1 (Range.make 16 30));
      checkb (name "pid 2 blind below its range") false
        (store.Store.overlaps ~pid:2 (Range.make 0 7));
      checki (name "bytes sum across pids") 32 (store.Store.tainted_bytes ());
      checki (name "counts sum across pids") 2 (store.Store.range_count ());
      store.Store.remove ~pid:1 (Range.make 0 15);
      checki (name "remove only touches its pid") 16
        (store.Store.tainted_bytes ());
      checkb (name "pid 2 unaffected") true
        (store.Store.overlaps ~pid:2 (Range.byte 8)))
    Store.all_backends

(* Read paths must be pure: querying a PID the store has never seen
   must not materialise a backend set for it (the old create allocated
   one on every overlaps/ranges call, growing the table and — with
   fold-based totals — the cost of every later metrics read). *)
let test_store_read_purity () =
  List.iter
    (fun backend ->
      let name s = Store.backend_to_string backend ^ ": " ^ s in
      let store = Store.create ~backend () in
      store.Store.add ~pid:1 (Range.make 0 7);
      checkb (name "fresh pid sees nothing") false
        (store.Store.overlaps ~pid:99 (Range.make 0 1000));
      checkb (name "fresh pid has no ranges") true
        (store.Store.ranges ~pid:99 = []);
      checki (name "range_count unchanged by reads") 1
        (store.Store.range_count ());
      checki (name "tainted_bytes unchanged by reads") 8
        (store.Store.tainted_bytes ());
      let fresh = Store.create ~backend () in
      ignore (fresh.Store.overlaps ~pid:7 (Range.byte 0));
      ignore (fresh.Store.ranges ~pid:7);
      ignore (fresh.Store.overlaps ~pid:8 (Range.byte 0));
      checki (name "fresh store still empty after queries") 0
        (fresh.Store.range_count ()))
    Store.all_backends

(* The store-wide totals are tracked incrementally (per-op deltas), not
   re-summed over every PID; they must stay equal to the from-scratch
   sums through coalescing adds, splitting removes, and no-op removes
   on untouched PIDs. *)
let test_store_incremental_totals () =
  let pids = [ 1; 2; 3 ] in
  List.iter
    (fun backend ->
      let name s = Store.backend_to_string backend ^ ": " ^ s in
      let store = Store.create ~backend () in
      let recount () =
        List.fold_left
          (fun acc pid -> acc + List.length (store.Store.ranges ~pid))
          0 pids
      in
      let rebytes () =
        List.fold_left
          (fun acc pid ->
            List.fold_left
              (fun a r -> a + Range.length r)
              acc
              (store.Store.ranges ~pid))
          0 pids
      in
      let steps =
        [
          ("add", 1, Range.make 0 15, `Add);
          ("overlapping add coalesces", 1, Range.make 8 23, `Add);
          ("second pid", 2, Range.make 100 131, `Add);
          ("adjacent add coalesces", 1, Range.make 24 31, `Add);
          ("splitting remove", 1, Range.make 10 20, `Remove);
          ("no-op remove on fresh pid", 3, Range.make 0 7, `Remove);
          ("single byte", 3, Range.byte 5, `Add);
          ("overshooting remove clears", 2, Range.make 90 200, `Remove);
          ("full clear", 1, Range.make 0 31, `Remove);
        ]
      in
      List.iter
        (fun (label, pid, r, op) ->
          (match op with
          | `Add -> store.Store.add ~pid r
          | `Remove -> store.Store.remove ~pid r);
          checki
            (name (label ^ ": count matches recount"))
            (recount ())
            (store.Store.range_count ());
          checki
            (name (label ^ ": bytes match recount"))
            (rebytes ())
            (store.Store.tainted_bytes ()))
        steps)
    Store.all_backends

(* --- end-to-end: DroidBench sweep, flat vs the functional reference ----- *)

let sweep_output backend =
  let sweep =
    Pift_eval.Accuracy.sweep ~backend ~nis:[ 1; 5; 9; 13 ] ~nts:[ 1; 3 ]
      Pift_workloads.Droidbench.subset48
  in
  (sweep, Format.asprintf "%t" (fun ppf -> Pift_eval.Accuracy.render sweep ppf ()))

let test_sweep_byte_identical () =
  let flat, flat_out = sweep_output Store.Flat in
  let reference, reference_out = sweep_output Store.Functional in
  checkb "confusion cells identical" true
    (flat.Pift_eval.Accuracy.cells = reference.Pift_eval.Accuracy.cells);
  Alcotest.(check string)
    "rendered sweep byte-identical" reference_out flat_out

(* The production store's one-entry pid cache against the bytemap
   oracle: random ops over three pids, where pid switches, reads of a
   pid with no set and evictions are all common, with the answers,
   totals and dump compared after every op.  None of those reads goes
   through the cache, so the check does not move it. *)
type pid_op = On of int * Prop.op | Release of int

let pid_op_to_string = function
  | Release pid -> Printf.sprintf "release %d" pid
  | On (pid, op) -> Printf.sprintf "pid %d %s" pid (Prop.op_to_string op)

let gen_pid_ops rng =
  let module Rng = Pift_util.Rng in
  List.init 200 (fun _ ->
      if Rng.int rng 12 = 0 then Release (Rng.int rng 3)
      else On (Rng.int rng 3, Prop.gen_op rng))

let stores_agree ops =
  let flat = Store.create ()
  and oracle = Store.create ~backend:Store.Bytemap () in
  let run (s : Store.t) = function
    | Release pid ->
        s.Store.release_pid ~pid;
        None
    | On (pid, Prop.Add r) ->
        s.Store.add ~pid r;
        None
    | On (pid, Prop.Remove r) ->
        s.Store.remove ~pid r;
        None
    | On (pid, Prop.Overlaps r) -> Some (s.Store.overlaps ~pid r)
  in
  let state (s : Store.t) =
    (s.Store.tainted_bytes (), s.Store.range_count (), s.Store.dump ())
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest ->
        let a = run flat op in
        let b = run oracle op in
        if a <> b || state flat <> state oracle then
          Error
            (Printf.sprintf "op %d (%s): flat store differs from the oracle" i
               (pid_op_to_string op))
        else go (i + 1) rest
  in
  go 1 ops

let test_store_pid_cache () =
  Prop.check_gen ~name:"flat store = bytemap store across pids" ~count:60
    ~gen:gen_pid_ops ~shrink:(fun _ -> [])
    ~to_string:(fun ops -> String.concat "; " (List.map pid_op_to_string ops))
    stores_agree

let () =
  Alcotest.run "pift_store"
    [
      ( "differential",
        [
          Alcotest.test_case "flat/functional/bytemap agree (12.5k ops)"
            `Quick test_differential;
          Alcotest.test_case "long sequences (10k ops)" `Quick
            test_differential_long;
        ] );
      ( "conventions",
        [
          Alcotest.test_case "closed intervals: hi+1 adjacency" `Quick
            test_closed_interval_adjacency;
          Alcotest.test_case "per-pid isolation" `Quick
            test_store_per_pid_isolation;
          Alcotest.test_case "read paths are pure" `Quick
            test_store_read_purity;
          Alcotest.test_case "incremental totals match recounts" `Quick
            test_store_incremental_totals;
          Alcotest.test_case "pid cache: flat = bytemap across pids" `Quick
            test_store_pid_cache;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "DroidBench sweep byte-identical" `Quick
            test_sweep_byte_identical;
        ] );
    ]
