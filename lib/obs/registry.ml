module Counter = Metric.Counter
module Gauge = Metric.Gauge
module Histogram = Metric.Histogram

type kind = Counter_kind | Gauge_kind | Histogram_kind

let kind_to_string = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

type cell =
  | Counter_cell of Counter.t
  | Gauge_cell of Gauge.t
  | Histogram_cell of Histogram.t

type entry = {
  e_name : string;
  e_help : string;
  e_kind : kind;
  e_label : string option;  (* family label key; [None] = single cell *)
  e_cells : (string, cell) Hashtbl.t;  (* label value -> cell; "" if plain *)
  mutable e_values_rev : string list;  (* label values in insertion order *)
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable names_rev : string list;
}

let create () = { entries = Hashtbl.create 32; names_rev = [] }

let entry t ~name ~help ~kind ~label =
  match Hashtbl.find_opt t.entries name with
  | Some e ->
      if e.e_kind <> kind then
        invalid_arg
          (Printf.sprintf "Registry: %s already registered as a %s" name
             (kind_to_string e.e_kind));
      if e.e_label <> label then
        invalid_arg
          (Printf.sprintf "Registry: %s label mismatch" name);
      e
  | None ->
      let e =
        {
          e_name = name;
          e_help = help;
          e_kind = kind;
          e_label = label;
          e_cells = Hashtbl.create 4;
          e_values_rev = [];
        }
      in
      Hashtbl.add t.entries name e;
      t.names_rev <- name :: t.names_rev;
      e

let cell e ~value ~make =
  match Hashtbl.find_opt e.e_cells value with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.add e.e_cells value c;
      e.e_values_rev <- value :: e.e_values_rev;
      c

let plain t ~name ~help ~kind ~make =
  let e = entry t ~name ~help ~kind ~label:None in
  cell e ~value:"" ~make

let counter t ?(help = "") name =
  match
    plain t ~name ~help ~kind:Counter_kind ~make:(fun () ->
        Counter_cell (Counter.create ()))
  with
  | Counter_cell c -> c
  | Gauge_cell _ | Histogram_cell _ -> assert false

let gauge t ?(help = "") name =
  match
    plain t ~name ~help ~kind:Gauge_kind ~make:(fun () ->
        Gauge_cell (Gauge.create ()))
  with
  | Gauge_cell g -> g
  | Counter_cell _ | Histogram_cell _ -> assert false

let histogram t ?(help = "") name =
  match
    plain t ~name ~help ~kind:Histogram_kind ~make:(fun () ->
        Histogram_cell (Histogram.create ()))
  with
  | Histogram_cell h -> h
  | Counter_cell _ | Gauge_cell _ -> assert false

let counter_family t ?(help = "") ~label name =
  let e = entry t ~name ~help ~kind:Counter_kind ~label:(Some label) in
  fun value ->
    match
      cell e ~value ~make:(fun () -> Counter_cell (Counter.create ()))
    with
    | Counter_cell c -> c
    | Gauge_cell _ | Histogram_cell _ -> assert false

let add_counter t ?help name n = Counter.add (counter t ?help name) n

let set_gauge t ?help name ~peak v =
  let g = gauge t ?help name in
  Gauge.set g peak;
  Gauge.set g v

(* --- snapshots --------------------------------------------------------- *)

type point =
  | P_counter of int
  | P_gauge of { value : float; peak : float }
  | P_histogram of {
      count : int;
      sum : int;
      vmax : int;
      buckets : (int * int) list;
    }

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_points : ((string * string) list * point) list;
}

let point_of_cell = function
  | Counter_cell c -> P_counter (Counter.value c)
  | Gauge_cell g -> P_gauge { value = Gauge.value g; peak = Gauge.peak g }
  | Histogram_cell h ->
      P_histogram
        {
          count = Histogram.count h;
          sum = Histogram.sum h;
          vmax = Histogram.max_value h;
          buckets = Histogram.nonzero_buckets h;
        }

let snapshot t =
  List.rev_map
    (fun name ->
      let e = Hashtbl.find t.entries name in
      let labels value =
        match e.e_label with
        | None -> []
        | Some key -> [ (key, value) ]
      in
      let points =
        List.rev_map
          (fun value ->
            (labels value, point_of_cell (Hashtbl.find e.e_cells value)))
          e.e_values_rev
      in
      {
        s_name = e.e_name;
        s_help = e.e_help;
        s_kind = e.e_kind;
        s_points = points;
      })
    t.names_rev

let find_counter t name =
  match Hashtbl.find_opt t.entries name with
  | Some { e_label = None; e_cells; _ } -> (
      match Hashtbl.find_opt e_cells "" with
      | Some (Counter_cell c) -> Some (Counter.value c)
      | Some (Gauge_cell _ | Histogram_cell _) | None -> None)
  | Some _ | None -> None

let find_gauge t name =
  match Hashtbl.find_opt t.entries name with
  | Some { e_label = None; e_cells; _ } -> (
      match Hashtbl.find_opt e_cells "" with
      | Some (Gauge_cell g) -> Some (Gauge.value g)
      | Some (Counter_cell _ | Histogram_cell _) | None -> None)
  | Some _ | None -> None
