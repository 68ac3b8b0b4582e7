type t = {
  limits : int array;
  counts : int array; (* length limits + 1; last is overflow *)
  mutable n : int;
  mutable total : int; (* saturates at max_int *)
  sum : float array;
      (* one cell: the float sum for the mean, which a saturated [total]
         cannot give; a flat float cell, so an update allocates nothing *)
  mutable vmin : int;
  mutable vmax : int;
}

let create limits =
  Array.iteri
    (fun i l -> if i > 0 && l <= limits.(i - 1) then invalid_arg "Hist.create: limits not increasing")
    limits;
  {
    limits;
    counts = Array.make (Array.length limits + 1) 0;
    n = 0;
    total = 0;
    sum = [| 0.0 |];
    vmin = max_int;
    vmax = min_int;
  }

let observe h x =
  let nb = Array.length h.limits in
  let rec bucket i = if i >= nb || x <= h.limits.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1;
  (* interval widths reach 2^61, so a few of them overflow an int sum *)
  h.total <- (if x > 0 && h.total > max_int - x then max_int else h.total + x);
  h.sum.(0) <- h.sum.(0) +. float_of_int x;
  if x < h.vmin then h.vmin <- x;
  if x > h.vmax then h.vmax <- x

type summary = {
  n : int;
  total : int;
  vmin : int;
  vmax : int;
  mean : float;
  buckets : (string * int) list;
}

let summary h =
  let nb = Array.length h.limits in
  let buckets =
    List.init (nb + 1) (fun i ->
        let label =
          if i < nb then Printf.sprintf "<=%d" h.limits.(i)
          else Printf.sprintf ">%d" h.limits.(nb - 1)
        in
        (label, h.counts.(i)))
  in
  {
    n = h.n;
    total = h.total;
    vmin = (if h.n = 0 then 0 else h.vmin);
    vmax = (if h.n = 0 then 0 else h.vmax);
    mean = (if h.n = 0 then 0.0 else h.sum.(0) /. float_of_int h.n);
    buckets;
  }

let summary_json s =
  Json.Obj
    [
      ("n", Json.Int s.n);
      ("total", Json.Int s.total);
      ("min", Json.Int s.vmin);
      ("max", Json.Int s.vmax);
      ("mean", Json.Float s.mean);
      ("buckets", Json.Obj (List.map (fun (k, c) -> (k, Json.Int c)) s.buckets));
    ]
