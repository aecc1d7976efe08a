type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if not (lo < hi) then invalid_arg "Histogram.create: lo must be < hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
    total = 0;
  }

(* Inlined, so a computed [x] reaches it unboxed; the int clamp is a
   branch, where [Stdlib.min] would be a call. *)
let[@inline] add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    let last = Array.length t.counts - 1 in
    let i = if i < last then i else last in
    t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.total

let bins t = Array.length t.counts

let underflow t = t.underflow

let overflow t = t.overflow

let bin_count t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram.bin_count: index out of range";
  t.counts.(i)

let bin_bounds t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram.bin_bounds: index out of range";
  let lo = t.lo +. (float_of_int i *. t.width) in
  (lo, lo +. t.width)

let percentile t p =
  if t.total = 0 then nan
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target = p /. 100. *. float_of_int t.total in
    let rec scan i acc =
      if i >= Array.length t.counts then t.hi
      else begin
        let acc' = acc +. float_of_int t.counts.(i) in
        if acc' >= target then begin
          (* interpolate within the bin *)
          let need = target -. acc in
          let frac =
            if t.counts.(i) = 0 then 0.
            else need /. float_of_int t.counts.(i)
          in
          t.lo +. ((float_of_int i +. frac) *. t.width)
        end
        else scan (i + 1) acc'
      end
    in
    let under = float_of_int t.underflow in
    if under >= target then t.lo else scan 0 under
  end

let mean_estimate t =
  if t.total = 0 then nan
  else begin
    let acc = ref 0. in
    Array.iteri
      (fun i c ->
        let mid = t.lo +. ((float_of_int i +. 0.5) *. t.width) in
        acc := !acc +. (mid *. float_of_int c))
      t.counts;
    acc := !acc +. (t.lo *. float_of_int t.underflow);
    acc := !acc +. (t.hi *. float_of_int t.overflow);
    !acc /. float_of_int t.total
  end
