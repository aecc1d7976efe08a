(* Every field is a float, so OCaml stores the record flat and [add]
   writes its fields without boxing. The count is a float too; it is
   exact below 2^53 observations, so every statistic is the one an int
   count would give. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

let create () =
  { n = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; sum = 0. }

let[@inline] add t x =
  let n = t.n +. 1. in
  t.n <- n;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.sum <- t.sum +. x

let count t = int_of_float t.n

let mean t = if t.n = 0. then nan else t.mean

let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max

(* Two-sided 97.5% Student-t quantiles by degrees of freedom. With the
   handful of replicates a matrix run typically has (3-10), the normal
   z=1.96 understates the interval badly: at df=2 the true critical
   value is 4.30, so a flat 1.96 reported intervals less than half as
   wide as they should be. *)
let t_crit_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_crit df =
  if df < 1 then nan
  else if df <= 30 then t_crit_table.(df - 1)
  else if df <= 40 then 2.021
  else if df <= 60 then 2.000
  else if df <= 120 then 1.980
  else 1.96

let ci95_halfwidth t =
  if t.n < 2. then 0. else t_crit (count t - 1) *. stddev t /. sqrt t.n

let pp ppf t =
  if t.n = 0. then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.6g±%.2g min=%.6g max=%.6g" (count t) t.mean
      (ci95_halfwidth t) t.min t.max

let to_json_string t =
  Printf.sprintf
    "{\"count\":%d,\"mean\":%s,\"stddev\":%s,\"min\":%s,\"max\":%s,\"sum\":%s}"
    (count t)
    (Jsonstr.float_repr (mean t))
    (Jsonstr.float_repr (stddev t))
    (Jsonstr.float_repr t.min)
    (Jsonstr.float_repr t.max)
    (Jsonstr.float_repr t.sum)
