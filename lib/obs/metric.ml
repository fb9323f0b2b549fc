module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr c = c.v <- c.v + 1

  let add c n =
    if n < 0 then invalid_arg "Counter.add: negative increment";
    c.v <- c.v + n

  let value c = c.v
end

module Gauge = struct
  type t = { mutable v : float; mutable peak : float }

  let create () = { v = 0.; peak = 0. }

  let set_float g v =
    g.v <- v;
    if v > g.peak then g.peak <- v

  let set g v = set_float g (float_of_int v)
  let value g = g.v
  let peak g = g.peak
end

module Histogram = struct
  (* Bucket 0 counts observations <= 0; bucket b >= 1 counts values in
     [2^(b-1), 2^b - 1].  62 power-of-two buckets cover every positive
     OCaml int, so [observe] never needs an overflow case. *)
  let buckets_count = 63

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable vmax : int;
  }

  let create () =
    { buckets = Array.make buckets_count 0; count = 0; sum = 0; vmax = 0 }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and x = ref v in
      while !x > 0 do
        incr b;
        x := !x lsr 1
      done;
      !b
    end

  let lower_bound b = if b <= 0 then 0 else 1 lsl (b - 1)
  let upper_bound b = if b <= 0 then 0 else (1 lsl b) - 1

  let observe h v =
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v > h.vmax then h.vmax <- v

  let count h = h.count
  let sum h = h.sum
  let max_value h = h.vmax

  let mean h =
    if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count

  (* Non-empty buckets as [(upper_bound, count)], lowest first. *)
  let nonzero_buckets h =
    let acc = ref [] in
    for b = buckets_count - 1 downto 0 do
      if h.buckets.(b) > 0 then acc := (upper_bound b, h.buckets.(b)) :: !acc
    done;
    !acc
end
