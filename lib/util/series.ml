type t = {
  name : string;
  mutable times : int array;
  mutable values : int array;
  mutable len : int;
}

let create ?(name = "") () =
  { name; times = Array.make 16 0; values = Array.make 16 0; len = 0 }

let name s = s.name

let ensure_capacity s =
  if s.len = Array.length s.times then begin
    let cap = 2 * s.len in
    let grow a = Array.append a (Array.make (cap - s.len) 0) in
    s.times <- grow s.times;
    s.values <- grow s.values
  end

let record s ~time ~value =
  if s.len > 0 && time < s.times.(s.len - 1) then
    invalid_arg "Series.record: time going backwards";
  ensure_capacity s;
  s.times.(s.len) <- time;
  s.values.(s.len) <- value;
  s.len <- s.len + 1

let last_value s = if s.len = 0 then None else Some s.values.(s.len - 1)

let length s = s.len

let max_value s =
  if s.len = 0 then None
  else begin
    let m = ref s.values.(0) in
    for i = 1 to s.len - 1 do
      if s.values.(i) > !m then m := s.values.(i)
    done;
    Some !m
  end

let to_list s =
  List.init s.len (fun i -> (s.times.(i), s.values.(i)))

let value_at s t =
  (* Largest index with time <= t, by binary search. *)
  if s.len = 0 || s.times.(0) > t then 0
  else begin
    let lo = ref 0 and hi = ref (s.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if s.times.(mid) <= t then lo := mid else hi := mid - 1
    done;
    s.values.(!lo)
  end

let downsample s n =
  if n <= 0 then invalid_arg "Series.downsample: non-positive n";
  if s.len <= n then to_list s
  else begin
    let t0 = s.times.(0) and t1 = s.times.(s.len - 1) in
    let span = max 1 (t1 - t0) in
    let sample i =
      let t = t0 + (span * i / (n - 1)) in
      (t, value_at s t)
    in
    List.init n sample
  end
