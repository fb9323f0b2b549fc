module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Series = Pift_util.Series

type point = {
  ni : int;
  nt : int;
  untaint : bool;
  max_tainted_bytes : int;
  max_ranges : int;
  taint_ops : int;
  untaint_ops : int;
}

let measure ?(untaint = true) recorded ~ni ~nt =
  let policy = Policy.make ~untaint ~ni ~nt () in
  let replay = Recorded.replay ~policy recorded in
  let s = replay.Recorded.stats in
  {
    ni;
    nt;
    untaint;
    max_tainted_bytes = s.Tracker.max_tainted_bytes;
    max_ranges = s.Tracker.max_ranges;
    taint_ops = s.Tracker.taint_ops;
    untaint_ops = s.Tracker.untaint_ops;
  }

let default_nis = List.init 20 (fun i -> i + 1)
let default_nts = List.init 10 (fun i -> i + 1)

(* One grid point per work item; the recording is shared read-only, each
   measure builds its own tracker, so cells are independent.  Results
   come back in input order — the parallel grid is list-equal to the
   serial one. *)
(* Wrap one measurement in a named span and sample its peak footprint on
   the worker's ring, when tracing is on.  Names are built per point —
   off the hot path. *)
let traced_measure rings ~worker ~name ?untaint recorded ~ni ~nt =
  if worker >= Array.length rings then
    measure ?untaint recorded ~ni ~nt
  else begin
    let r = rings.(worker) in
    Pift_obs.Flight.begin_ r name;
    let p = measure ?untaint recorded ~ni ~nt in
    Pift_obs.Flight.sample r "max_tainted_bytes"
      (float_of_int p.max_tainted_bytes);
    Pift_obs.Flight.sample r "max_ranges" (float_of_int p.max_ranges);
    Pift_obs.Flight.end_ r name;
    p
  end

let grid ?(nis = default_nis) ?(nts = default_nts) ?(rings = [||])
    ?(jobs = 1) recorded =
  let points =
    Array.of_list
      (List.concat_map (fun ni -> List.map (fun nt -> (ni, nt)) nts) nis)
  in
  Pift_par.Pool.with_pool ~jobs ~rings (fun pool ->
      Array.to_list
        (Pift_par.Pool.map_slots pool
           ~f:(fun ~worker _ (ni, nt) ->
             let name = Printf.sprintf "cell(%d,%d)" ni nt in
             traced_measure rings ~worker ~name recorded ~ni ~nt)
           points))

let series recorded ~ni ~nt =
  let policy = Policy.make ~ni ~nt () in
  let replay = Recorded.replay ~policy recorded in
  ( Series.downsample replay.Recorded.bytes_series 72,
    Series.downsample replay.Recorded.ops_series 72 )

let untaint_effect ?(rings = [||]) ?(jobs = 1) recorded ~nis ~nt =
  Pift_par.Pool.with_pool ~jobs ~rings (fun pool ->
      Array.to_list
        (Pift_par.Pool.map_slots pool
           ~f:(fun ~worker _ ni ->
             ( ni,
               traced_measure rings ~worker
                 ~name:(Printf.sprintf "untaint-on(%d,%d)" ni nt)
                 ~untaint:true recorded ~ni ~nt,
               traced_measure rings ~worker
                 ~name:(Printf.sprintf "untaint-off(%d,%d)" ni nt)
                 ~untaint:false recorded ~ni ~nt ))
           (Array.of_list nis)))

let render_grid ~title ~metric points ppf () =
  let nis = List.sort_uniq Int.compare (List.map (fun p -> p.ni) points) in
  let nts = List.sort_uniq Int.compare (List.map (fun p -> p.nt) points) in
  (* One pass to index the points: List.find per heatmap cell made the
     render O(cells^2). *)
  let index = Hashtbl.create (List.length points) in
  List.iter (fun p -> Hashtbl.replace index (p.ni, p.nt) p) points;
  let find ni nt =
    match Hashtbl.find_opt index (ni, nt) with
    | Some p -> p
    | None -> invalid_arg "Overhead.render_grid: (ni, nt) not in the grid"
  in
  Pift_util.Textplot.heatmap ~title ~row_label:"NT" ~col_label:"NI" ~rows:nts
    ~cols:nis
    (fun ~row ~col -> float_of_int (metric (find col row)))
    ppf ()

let render_series ~title ~log_scale curves ppf () =
  Pift_util.Textplot.series ~log_scale ~title curves ppf ();
  (* Numeric companion table: each curve sampled at ~8 common points. *)
  let tmax =
    List.fold_left
      (fun acc (_, pts) ->
        List.fold_left (fun acc (t, _) -> max acc t) acc pts)
      1 curves
  in
  let samples = List.init 8 (fun i -> tmax * (i + 1) / 8) in
  Format.fprintf ppf "@[<v>%10s" "t";
  List.iter (fun t -> Format.fprintf ppf "%10d" t) samples;
  Format.fprintf ppf "@,";
  let value_at pts t =
    List.fold_left (fun acc (t', v) -> if t' <= t then v else acc) 0 pts
  in
  List.iter
    (fun (label, pts) ->
      Format.fprintf ppf "%10s" label;
      List.iter (fun t -> Format.fprintf ppf "%10d" (value_at pts t)) samples;
      Format.fprintf ppf "@,")
    curves;
  Format.fprintf ppf "@]@."
