type t = {
  bounds : int array;
  counts : int array; (* length = Array.length bounds + 1; last = overflow *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create ~bounds =
  if Array.length bounds = 0 then invalid_arg "Histogram.create: empty bounds";
  Array.iteri
    (fun i b -> if i > 0 && bounds.(i - 1) >= b then invalid_arg "Histogram.create: bounds not increasing")
    bounds;
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    n = 0;
    sum = 0;
    min_v = max_int;
    max_v = min_int;
  }

let exponential_bounds ~lo ~hi =
  let rec collect acc b = if b > hi then List.rev acc else collect (b :: acc) (b * 2) in
  Array.of_list (collect [] (max 1 lo))

(* HDR-style log-linear bounds: each power-of-two span [b, 2b) is cut
   into [sub] equal linear sub-buckets, so the relative quantile error is
   bounded by 1/sub everywhere instead of the factor-of-two a pure
   power-of-two layout gives — the difference between a usable and a
   useless p999 on latency data. Sub-bucket widths below 1 collapse
   (small spans cannot be cut finer than integers), so the low end
   degenerates gracefully into exact integer buckets. *)
let log_linear_bounds ~lo ~hi ~sub =
  if sub < 1 then invalid_arg "Histogram.log_linear_bounds: sub must be >= 1";
  let lo = max 1 lo in
  let acc = ref [] in
  let b = ref lo in
  while !b <= hi do
    let span = !b in
    let step = max 1 (span / sub) in
    let s = ref span in
    while !s < 2 * span do
      acc := !s :: !acc;
      s := !s + step
    done;
    b := 2 * span
  done;
  (* Top edge: the last bucket below overflow ends at the next
     power-of-two boundary past [hi]. *)
  acc := !b :: !acc;
  Array.of_list (List.rev !acc)

let create_log_linear ~lo ~hi ~sub = create ~bounds:(log_linear_bounds ~lo ~hi ~sub)

(* Binary search for the first bound strictly greater than [x]. *)
let bucket_of t x =
  let lo = ref 0 and hi = ref (Array.length t.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x < t.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let add t x =
  t.counts.(bucket_of t x) <- t.counts.(bucket_of t x) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n

let total t = t.sum

let min_value t = if t.n = 0 then None else Some t.min_v

let max_value t = if t.n = 0 then None else Some t.max_v

let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let percentile t q =
  if t.n = 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = int_of_float (ceil (q *. float_of_int t.n)) in
    let target = max 1 target in
    let acc = ref 0 and result = ref t.max_v in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= target then begin
             result := (if i = Array.length t.bounds then t.max_v else t.bounds.(i));
             raise Exit
           end)
         t.counts
     with Exit -> ());
    !result
  end

let buckets t =
  Array.mapi
    (fun i c ->
      let lo = if i = 0 then 0 else t.bounds.(i - 1) in
      let hi = if i = Array.length t.bounds then max_int else t.bounds.(i) in
      (lo, hi, c))
    t.counts
