(* SplitMix64. Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)

(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] record field: int64 fields are boxed, so a record would
   allocate a fresh box on every draw. [Bytes.get/set_int64_le] keep the
   arithmetic unboxed end to end, making draws allocation-free on the
   native-code path. *)
type t = { state : Bytes.t }

let of_int64 s =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 s;
  { state = b }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = of_int64 (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_le t.state 0) golden_gamma in
  Bytes.set_int64_le t.state 0 s;
  mix64 s

let split t =
  let seed = bits64 t in
  of_int64 (mix64 seed)

(* Top 53 bits -> float in [0,1). *)
let[@inline] unit_float t =
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. 0x1.0p-53

let[@inline] float t x =
  assert (x > 0.);
  unit_float t *. x

let[@inline] int t n =
  assert (n > 0);
  (* Rejection-free for n << 2^62: take nonnegative 62 bits, mod n. The
     modulo bias is < n / 2^62, negligible for simulation use. *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  x mod n

let[@inline] bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float t < p

let exponential t ~mean =
  assert (mean > 0.);
  let u = 1. -. unit_float t in
  -.mean *. log u

let[@inline] geometric t ~p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 1
  else
    let u = 1. -. unit_float t in
    (* ceil of log-transform inverse CDF; always >= 1 *)
    let k = int_of_float (ceil (log u /. log (1. -. p))) in
    if k > 1 then k else 1

let binomial t ~n ~p =
  assert (n >= 0);
  if n = 0 || p <= 0. then 0
  else if p >= 1. then n
  else if n <= 64 then begin
    let c = ref 0 in
    for _ = 1 to n do
      if bernoulli t ~p then incr c
    done;
    !c
  end
  else begin
    (* branch, not [Float.min]: a non-inlined cross-module call would
       box the argument and result floats on every draw *)
    let q = if p <= 0.5 then p else 1. -. p in
    if float_of_int n *. q <= 30. then begin
      (* Direct CDF inversion on the rarer outcome. The normal
         approximation is catastrophically wrong in this regime: at
         n*p << 1 (a 12,000-bit frame at BER 1e-7, say) it rounds every
         draw to zero and the simulated frame-error rate collapses to 0
         instead of ~n*p. Inversion is exact, and with n*q <= 30 the
         walk terminates after a handful of pmf terms. *)
      let u = ref (unit_float t) in
      let pmf = ref (exp (float_of_int n *. log1p (-.q))) in
      let ratio = q /. (1. -. q) in
      let k = ref 0 in
      while !u >= !pmf && !k < n do
        u := !u -. !pmf;
        pmf := !pmf *. (float_of_int (n - !k) /. float_of_int (!k + 1)) *. ratio;
        incr k
      done;
      if p <= 0.5 then !k else n - !k
    end
    else begin
      (* Normal approximation with continuity correction, clamped to the
         support. Fine when the distribution is well away from the edges
         of the support (n*p and n*(1-p) both large), which the branch
         above guarantees. *)
      let mean = float_of_int n *. p in
      let sd = sqrt (float_of_int n *. p *. (1. -. p)) in
      (* Box-Muller *)
      let u1 = 1. -. unit_float t and u2 = unit_float t in
      let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
      let x = int_of_float (Float.round (mean +. (sd *. z))) in
      max 0 (min n x)
    end
  end

(* Path-based seed derivation. Each component is absorbed into the
   64-bit state byte by byte through the SplitMix64 finalizer, with a
   length prefix so ["ab"; "c"] and ["a"; "bc"] land on different
   streams. Pure Int64 arithmetic: the result is identical on every
   platform and OCaml version, which is what lets replicated experiments
   name their RNG streams structurally (root / experiment / point /
   replicate) instead of sharing one mutable generator. *)
let absorb h x = mix64 (Int64.add (Int64.logxor h x) golden_gamma)

let absorb_string h s =
  let h = ref (absorb h (Int64.of_int (String.length s))) in
  String.iter (fun c -> h := absorb !h (Int64.of_int (Char.code c))) s;
  !h

let derive_bits ~root path =
  List.fold_left absorb_string (mix64 (Int64.of_int root)) path

let derive_seed ~root path =
  Int64.to_int (derive_bits ~root path) land max_int
