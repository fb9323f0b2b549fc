module Range = Pift_util.Range

type backend = Flat | Functional | Bytemap

let backend_to_string = function
  | Flat -> "flat"
  | Functional -> "functional"
  | Bytemap -> "bytemap"

(* Order matters to the differential suite: the bytemap oracle is last. *)
let all_backends = [ Flat; Functional; Bytemap ]

type set = {
  s_add : Range.t -> unit;
  s_remove : Range.t -> unit;
  s_overlaps : Range.t -> bool;
  s_bytes : unit -> int;
  s_count : unit -> int;
  s_ranges : unit -> Range.t list;
}

let functional () =
  let s = ref Range_set.empty in
  {
    s_add = (fun r -> s := Range_set.add !s r);
    s_remove = (fun r -> s := Range_set.remove !s r);
    s_overlaps = (fun r -> Range_set.mem_overlap !s r);
    s_bytes = (fun () -> Range_set.total_bytes !s);
    s_count = (fun () -> Range_set.cardinal !s);
    s_ranges = (fun () -> Range_set.ranges !s);
  }

let flat () =
  let s = Store_flat.create () in
  {
    s_add = Store_flat.add s;
    s_remove = Store_flat.remove s;
    s_overlaps = Store_flat.mem_overlap s;
    s_bytes = (fun () -> Store_flat.total_bytes s);
    s_count = (fun () -> Store_flat.cardinal s);
    s_ranges = (fun () -> Store_flat.ranges s);
  }

let bytemap () =
  let s = Store_bytemap.create () in
  {
    s_add = Store_bytemap.add s;
    s_remove = Store_bytemap.remove s;
    s_overlaps = Store_bytemap.mem_overlap s;
    s_bytes = (fun () -> Store_bytemap.total_bytes s);
    s_count = (fun () -> Store_bytemap.cardinal s);
    s_ranges = (fun () -> Store_bytemap.ranges s);
  }

let make = function
  | Flat -> flat ()
  | Functional -> functional ()
  | Bytemap -> bytemap ()
