(* Tests for the stats substrate: online accumulators, histograms,
   series and tables. *)

let feq name ?(eps = 1e-9) a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %g != %g" name a b

let test_online_basics () =
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Online.count o);
  feq "mean" (Stats.Online.mean o) 5.;
  feq "stddev" ~eps:1e-9 (Stats.Online.stddev o) (sqrt (32. /. 7.));
  feq "min" (Stats.Online.min o) 2.;
  feq "max" (Stats.Online.max o) 9.

let test_online_empty () =
  let o = Stats.Online.create () in
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Stats.Online.mean o));
  feq "stddev 0" (Stats.Online.stddev o) 0.;
  feq "ci 0" (Stats.Online.ci95_halfwidth o) 0.

let test_online_single () =
  let o = Stats.Online.create () in
  Stats.Online.add o 42.;
  feq "mean" (Stats.Online.mean o) 42.;
  feq "stddev" (Stats.Online.stddev o) 0.

let test_online_ci95_student_t () =
  (* Small replicate counts must use Student-t critical values, not the
     normal 1.96. For n samples with stddev s, halfwidth is
     t_{0.975, n-1} * s / sqrt n. *)
  let halfwidth data =
    let o = Stats.Online.create () in
    List.iter (Stats.Online.add o) data;
    (Stats.Online.ci95_halfwidth o, Stats.Online.stddev o)
  in
  (* n=2, df=1: t = 12.706 *)
  let hw, s = halfwidth [ 1.; 3. ] in
  feq "n=2 halfwidth" ~eps:1e-6 hw (12.706 *. s /. sqrt 2.);
  (* n=5, df=4: t = 2.776 *)
  let hw, s = halfwidth [ 1.; 2.; 3.; 4.; 5. ] in
  feq "n=5 halfwidth" ~eps:1e-6 hw (2.776 *. s /. sqrt 5.);
  (* large n converges to the normal value *)
  let o = Stats.Online.create () in
  for i = 1 to 500 do
    Stats.Online.add o (float_of_int (i mod 7))
  done;
  feq "n=500 halfwidth" ~eps:1e-6
    (Stats.Online.ci95_halfwidth o)
    (1.96 *. Stats.Online.stddev o /. sqrt 500.)

(* The accumulator as it was with an int count, kept as the reference
   for the flat all-float record: every statistic must agree bit for
   bit. *)
module Int_count_online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let t_crit df =
    let table =
      [|
        12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
        2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
        2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
      |]
    in
    if df < 1 then nan
    else if df <= 30 then table.(df - 1)
    else if df <= 40 then 2.021
    else if df <= 60 then 2.000
    else if df <= 120 then 1.980
    else 1.96

  let ci95_halfwidth t =
    if t.n < 2 then 0.
    else t_crit (t.n - 1) *. stddev t /. sqrt (float_of_int t.n)
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every statistic of [o] equals the reference's, bit for bit. *)
let agrees o (r : Int_count_online.t) =
  Stats.Online.count o = r.n
  && same_bits (Stats.Online.mean o) (Int_count_online.mean r)
  && same_bits (Stats.Online.stddev o) (Int_count_online.stddev r)
  && same_bits (Stats.Online.min o) r.min
  && same_bits (Stats.Online.max o) r.max
  && same_bits (Stats.Online.ci95_halfwidth o) (Int_count_online.ci95_halfwidth r)

let prop_online_matches_int_count =
  let sample =
    QCheck2.Gen.(
      oneof
        [
          float_range (-1e9) 1e9;
          map float_of_int (int_range (-5) 5);
          oneofl [ 0.; -0.; 1e-300; 1e300; 0.1 ];
        ])
  in
  (* list lengths start at 0 and 1: empty and singleton accumulators *)
  let samples = QCheck2.Gen.(list_size (int_range 0 40) sample) in
  QCheck2.Test.make ~name:"online matches the int-count accumulator bit for bit"
    ~count:500 (QCheck2.Gen.pair samples samples)
    (fun (xs, ys) ->
      let build xs =
        let o = Stats.Online.create () and r = Int_count_online.create () in
        List.iter
          (fun x ->
            Stats.Online.add o x;
            Int_count_online.add r x)
          xs;
        (o, r)
      in
      let a, ra = build xs and b, rb = build ys in
      agrees a ra && agrees b rb)

let test_histogram_basic () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -1.; 10.; 15. ];
  Alcotest.(check int) "count" 7 (Stats.Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h);
  Alcotest.(check int) "bin 0" 1 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Stats.Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Stats.Histogram.bin_count h 9)

let test_histogram_bounds () =
  let h = Stats.Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  let lo, hi = Stats.Histogram.bin_bounds h 1 in
  feq "bin lo" lo 0.25;
  feq "bin hi" hi 0.5;
  Alcotest.check_raises "bad bin" (Invalid_argument "Histogram.bin_bounds: index out of range")
    (fun () -> ignore (Stats.Histogram.bin_bounds h 4))

let test_histogram_percentile () =
  let h = Stats.Histogram.create ~lo:0. ~hi:100. ~bins:100 in
  for i = 0 to 99 do
    Stats.Histogram.add h (float_of_int i +. 0.5)
  done;
  let p50 = Stats.Histogram.percentile h 50. in
  if Float.abs (p50 -. 50.) > 1.5 then Alcotest.failf "p50 = %g" p50;
  let p95 = Stats.Histogram.percentile h 95. in
  if Float.abs (p95 -. 95.) > 1.5 then Alcotest.failf "p95 = %g" p95

let test_histogram_empty_percentile () =
  let h = Stats.Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Alcotest.(check bool) "nan when empty" true
    (Float.is_nan (Stats.Histogram.percentile h 50.))

(* The points a series holds, read back through the plot E5 and E6
   draw: its axis ranges. *)
let test_series_roundtrip () =
  let s = Stats.Series.create ~name:"x" in
  Stats.Series.add s ~x:1. ~y:10.;
  Stats.Series.add s ~x:2. ~y:20.;
  let out =
    Format.asprintf "%a" (fun ppf l -> Stats.Series.pp_ascii_plot ppf l) [ s ]
  in
  let shows affix = Astring.String.is_infix ~affix out in
  Alcotest.(check bool) "x range" true (shows "x: [1, 2]");
  Alcotest.(check bool) "y range" true (shows "y: [10, 20]")

let test_series_ascii_plot () =
  let s1 = Stats.Series.create ~name:"up" in
  for i = 0 to 9 do
    Stats.Series.add s1 ~x:(float_of_int i) ~y:(float_of_int (i * i))
  done;
  let out = Format.asprintf "%a" (fun ppf l -> Stats.Series.pp_ascii_plot ppf l) [ s1 ] in
  Alcotest.(check bool) "axis ranges shown" true
    (Astring.String.is_infix ~affix:"y: [0, 81]" out);
  Alcotest.(check bool) "marker drawn" true (Astring.String.is_infix ~affix:"1" out);
  (* empty input does not raise *)
  let empty = Format.asprintf "%a" (fun ppf l -> Stats.Series.pp_ascii_plot ppf l) [] in
  Alcotest.(check bool) "empty handled" true (String.length empty > 0)

let test_table_render () =
  let t = Stats.Table.create ~header:[ "name"; "value" ] in
  Stats.Table.add_row t [ "x"; "1" ];
  Stats.Table.add_float_row t "y" [ 2.5 ];
  let s = Format.asprintf "%a" Stats.Table.pp t in
  Alcotest.(check bool) "header present" true (Astring.String.is_infix ~affix:"name" s);
  Alcotest.(check bool) "row x" true (Astring.String.is_infix ~affix:"x" s);
  Alcotest.(check bool) "float formatted" true (Astring.String.is_infix ~affix:"2.5" s)

let test_table_ragged_rows () =
  let t = Stats.Table.create ~header:[ "a" ] in
  Stats.Table.add_row t [ "1"; "2"; "3" ];
  Stats.Table.add_row t [];
  let s = Format.asprintf "%a" Stats.Table.pp t in
  Alcotest.(check bool) "extends columns" true (Astring.String.is_infix ~affix:"3" s)

let suite =
  [
    Alcotest.test_case "online basics" `Quick test_online_basics;
    Alcotest.test_case "online empty" `Quick test_online_empty;
    Alcotest.test_case "online single" `Quick test_online_single;
    Alcotest.test_case "online ci95 student-t" `Quick
      test_online_ci95_student_t;
    QCheck_alcotest.to_alcotest prop_online_matches_int_count;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
    Alcotest.test_case "histogram bounds" `Quick test_histogram_bounds;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "histogram empty percentile" `Quick test_histogram_empty_percentile;
    Alcotest.test_case "series roundtrip" `Quick test_series_roundtrip;
    Alcotest.test_case "series ascii plot" `Quick test_series_ascii_plot;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table ragged rows" `Quick test_table_ragged_rows;
  ]
