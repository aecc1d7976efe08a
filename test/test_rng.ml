(* Unit and property tests for Sim.Rng (SplitMix64). *)

(* One draw of the generator's top 53 bits, as a float in [0, 1). *)
let draw r = Sim.Rng.float r 1.

let test_determinism () =
  let a = Sim.Rng.create ~seed:123 and b = Sim.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (draw a) (draw b)
  done

let test_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false
    (draw a = draw b)

let test_split_independence () =
  let a = Sim.Rng.create ~seed:9 in
  let child = Sim.Rng.split a in
  (* child and parent produce different streams *)
  Alcotest.(check bool) "split differs from parent" false
    (draw child = draw a)

let test_unit_float_range () =
  let r = Sim.Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = draw r in
    if not (x >= 0. && x < 1.) then
      Alcotest.failf "unit_float out of range: %g" x
  done

let test_int_bounds () =
  let r = Sim.Rng.create ~seed:6 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done

let test_bernoulli_extremes () =
  let r = Sim.Rng.create ~seed:8 in
  Alcotest.(check bool) "p=0 never true" false (Sim.Rng.bernoulli r ~p:0.);
  Alcotest.(check bool) "p=1 always true" true (Sim.Rng.bernoulli r ~p:1.)

let test_bernoulli_mean () =
  let r = Sim.Rng.create ~seed:10 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli r ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  if Float.abs (freq -. 0.3) > 0.01 then
    Alcotest.failf "bernoulli(0.3) frequency %g too far off" freq

let test_exponential_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Sim.Rng.exponential r ~mean:2.5
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 2.5) > 0.05 then
    Alcotest.failf "exponential mean %g != 2.5" mean

let test_geometric_support_and_mean () =
  let r = Sim.Rng.create ~seed:12 in
  let n = 50_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    let k = Sim.Rng.geometric r ~p:0.25 in
    if k < 1 then Alcotest.failf "geometric < 1: %d" k;
    acc := !acc + k
  done;
  let mean = float_of_int !acc /. float_of_int n in
  if Float.abs (mean -. 4.) > 0.1 then
    Alcotest.failf "geometric(0.25) mean %g != 4" mean

let test_geometric_p1 () =
  let r = Sim.Rng.create ~seed:13 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 gives 1" 1 (Sim.Rng.geometric r ~p:1.)
  done

let test_binomial_small_exact_range () =
  let r = Sim.Rng.create ~seed:14 in
  for _ = 1 to 1000 do
    let k = Sim.Rng.binomial r ~n:20 ~p:0.5 in
    if k < 0 || k > 20 then Alcotest.failf "binomial out of range: %d" k
  done

let test_binomial_large_mean () =
  let r = Sim.Rng.create ~seed:15 in
  let trials = 2000 in
  let acc = ref 0 in
  for _ = 1 to trials do
    acc := !acc + Sim.Rng.binomial r ~n:10_000 ~p:0.01
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  (* expected 100, sd per trial ~10, sd of the mean ~0.22 *)
  if Float.abs (mean -. 100.) > 2. then
    Alcotest.failf "binomial(10000, 0.01) mean %g != 100" mean

(* Low-np regime: a frame of n bits at bit-error rate p suffers at least
   one error with probability 1 - (1-p)^n. The old normal approximation
   rounded every draw to 0 here (mean << 0.5), silently zeroing the
   simulated frame-error rate at BER <= 1e-6. These tests pin the
   empirical FER against the closed form. *)
let check_low_ber_fer ~seed ~bits ~ber ~samples ~tol =
  let r = Sim.Rng.create ~seed in
  let errored = ref 0 in
  for _ = 1 to samples do
    if Sim.Rng.binomial r ~n:bits ~p:ber > 0 then incr errored
  done;
  let fer = float_of_int !errored /. float_of_int samples in
  let expected = 1. -. exp (float_of_int bits *. log1p (-.ber)) in
  if Float.abs (fer -. expected) > tol *. expected then
    Alcotest.failf "FER at BER %g: got %g, expected %g (tol %g%%)" ber fer
      expected (100. *. tol)

let test_binomial_low_ber_1e6 () =
  (* 12,000-bit frame at BER 1e-6: expected FER ~1.19e-2. Over 1e6
     samples the relative sampling noise is ~0.9%, so 10% is generous. *)
  check_low_ber_fer ~seed:18 ~bits:12_000 ~ber:1e-6 ~samples:1_000_000
    ~tol:0.1

let test_binomial_low_ber_1e7 () =
  (* The ISSUE acceptance case: BER 1e-7, expected FER ~1.2e-3, which
     the normal approximation simulated as exactly 0. Relative sampling
     noise over 1e6 draws is ~2.9%. *)
  check_low_ber_fer ~seed:19 ~bits:12_000 ~ber:1e-7 ~samples:1_000_000
    ~tol:0.1

let test_binomial_inversion_mean () =
  (* Mean of the inversion branch (n > 64, n*p small) against n*p. *)
  let r = Sim.Rng.create ~seed:20 in
  let trials = 200_000 in
  let acc = ref 0 in
  for _ = 1 to trials do
    acc := !acc + Sim.Rng.binomial r ~n:10_000 ~p:1e-4
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  (* expected 1.0, sd per trial ~1, sd of the mean ~2.2e-3 *)
  if Float.abs (mean -. 1.0) > 0.02 then
    Alcotest.failf "binomial(10000, 1e-4) mean %g != 1" mean

let test_binomial_high_p_symmetry () =
  (* p > 0.5 with small n*(1-p) exercises the mirrored inversion path:
     sample failures and return n - k. *)
  let r = Sim.Rng.create ~seed:21 in
  let trials = 100_000 in
  let acc = ref 0 in
  for _ = 1 to trials do
    let k = Sim.Rng.binomial r ~n:1000 ~p:0.999 in
    if k < 0 || k > 1000 then Alcotest.failf "out of range: %d" k;
    acc := !acc + k
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  (* expected 999, sd per trial ~1, sd of the mean ~3e-3 *)
  if Float.abs (mean -. 999.) > 0.05 then
    Alcotest.failf "binomial(1000, 0.999) mean %g != 999" mean

let test_binomial_edges () =
  let r = Sim.Rng.create ~seed:16 in
  Alcotest.(check int) "n=0" 0 (Sim.Rng.binomial r ~n:0 ~p:0.5);
  Alcotest.(check int) "p=0" 0 (Sim.Rng.binomial r ~n:100 ~p:0.);
  Alcotest.(check int) "p=1" 100 (Sim.Rng.binomial r ~n:100 ~p:1.)

(* --- hash-based path derivation (the matrix runner's seeds) --------- *)

(* The runner's generator for a task: seeded by its derived seed. *)
let derive ~root path = Sim.Rng.create ~seed:(Sim.Rng.derive_seed ~root path)

let test_derive_determinism () =
  let a = derive ~root:42 [ "e6"; "ber=1e-5"; "0" ]
  and b = derive ~root:42 [ "e6"; "ber=1e-5"; "0" ] in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.)) "same path, same stream" (draw a) (draw b)
  done

let test_derive_stability () =
  (* Pinned value: derivation must never change across runs, platforms
     or releases, or archived matrix reports stop being reproducible. *)
  Alcotest.(check int)
    "derive_seed(42, e6/ber=1e-5/0) pinned" 2359814061942860303
    (Sim.Rng.derive_seed ~root:42 [ "e6"; "ber=1e-5"; "0" ]);
  Alcotest.(check int)
    "derive_seed(42, e6/ber=1e-5/1) pinned" 4322269616280044835
    (Sim.Rng.derive_seed ~root:42 [ "e6"; "ber=1e-5"; "1" ])

let test_derive_component_boundaries () =
  (* length-prefixed absorption: moving a byte across a component
     boundary must give a different seed *)
  Alcotest.(check bool) "ab|c differs from a|bc" false
    (Sim.Rng.derive_seed ~root:1 [ "ab"; "c" ]
    = Sim.Rng.derive_seed ~root:1 [ "a"; "bc" ]);
  Alcotest.(check bool) "root matters" false
    (Sim.Rng.derive_seed ~root:1 [ "x" ] = Sim.Rng.derive_seed ~root:2 [ "x" ])

let test_derive_stream_independence () =
  (* Sibling replicate streams must not overlap: 10k draws from each of
     several derived generators are pairwise distinct. With 53-bit
     draws a single collision among 40k has probability ~1e-7, so any
     hit means real structure (e.g. one stream lagging another). *)
  let draws_per_stream = 10_000 in
  let seen = Hashtbl.create (8 * draws_per_stream) in
  List.iter
    (fun replicate ->
      let rng =
        derive ~root:42 [ "e6"; "ber=1e-5"; string_of_int replicate ]
      in
      for _ = 1 to draws_per_stream do
        let v = draw rng in
        (match Hashtbl.find_opt seen v with
        | Some other ->
            Alcotest.failf "streams %d and %d share value %h" replicate other v
        | None -> ());
        Hashtbl.add seen v replicate
      done)
    [ 0; 1; 2; 3 ]

let prop_binomial_low_np_fer =
  (* Random frame sizes and low BERs: the empirical frame-error rate must
     track 1 - (1-p)^n. Filtered to expected hit counts >= 300 so the
     25% tolerance is ~4 sigma of sampling noise. *)
  QCheck2.Test.make ~name:"rng binomial low-np FER matches closed form"
    ~count:10
    QCheck2.Gen.(triple (int_range 100 16_384) (float_range 4.5 6.5) int)
    (fun (bits, neg_exp, seed) ->
      let ber = 10. ** -.neg_exp in
      let expected = 1. -. exp (float_of_int bits *. log1p (-.ber)) in
      QCheck2.assume (expected >= 0.005);
      let samples = 60_000 in
      let r = Sim.Rng.create ~seed in
      let errored = ref 0 in
      for _ = 1 to samples do
        if Sim.Rng.binomial r ~n:bits ~p:ber > 0 then incr errored
      done;
      let fer = float_of_int !errored /. float_of_int samples in
      Float.abs (fer -. expected) <= 0.25 *. expected)

let prop_int_in_bounds =
  QCheck2.Test.make ~name:"rng int always in [0,n)" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (n, seed) ->
      let r = Sim.Rng.create ~seed in
      let x = Sim.Rng.int r n in
      x >= 0 && x < n)

let prop_float_in_bounds =
  QCheck2.Test.make ~name:"rng float always in [0,x)" ~count:500
    QCheck2.Gen.(pair (float_range 1e-6 1e6) int)
    (fun (x, seed) ->
      let r = Sim.Rng.create ~seed in
      let v = Sim.Rng.float r x in
      v >= 0. && v < x)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli mean" `Slow test_bernoulli_mean;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "geometric support+mean" `Slow test_geometric_support_and_mean;
    Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
    Alcotest.test_case "binomial small range" `Quick test_binomial_small_exact_range;
    Alcotest.test_case "binomial large mean" `Slow test_binomial_large_mean;
    Alcotest.test_case "binomial FER at BER 1e-6" `Slow
      test_binomial_low_ber_1e6;
    Alcotest.test_case "binomial FER at BER 1e-7" `Slow
      test_binomial_low_ber_1e7;
    Alcotest.test_case "binomial inversion mean" `Slow
      test_binomial_inversion_mean;
    Alcotest.test_case "binomial high-p symmetry" `Slow
      test_binomial_high_p_symmetry;
    Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
    Alcotest.test_case "derive determinism" `Quick test_derive_determinism;
    Alcotest.test_case "derive stability (pinned)" `Quick test_derive_stability;
    Alcotest.test_case "derive component boundaries" `Quick
      test_derive_component_boundaries;
    Alcotest.test_case "derive stream independence" `Slow
      test_derive_stream_independence;
    QCheck_alcotest.to_alcotest prop_binomial_low_np_fer;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_float_in_bounds;
  ]
