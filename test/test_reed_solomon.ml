(* Reed-Solomon and GF(256) tests. *)

let test_gf_field_axioms () =
  (* spot-check axioms on a few triples *)
  List.iter
    (fun (a, b, c) ->
      Alcotest.(check int) "assoc mul" (Fec.Gf256.mul a (Fec.Gf256.mul b c))
        (Fec.Gf256.mul (Fec.Gf256.mul a b) c);
      Alcotest.(check int) "distrib"
        (Fec.Gf256.mul a (Fec.Gf256.add b c))
        (Fec.Gf256.add (Fec.Gf256.mul a b) (Fec.Gf256.mul a c)))
    [ (3, 7, 200); (255, 128, 1); (17, 90, 45) ];
  Alcotest.(check int) "mul identity" 77 (Fec.Gf256.mul 77 1);
  Alcotest.(check int) "add self = 0" 0 (Fec.Gf256.add 99 99)

let test_gf_inverse () =
  for a = 1 to 255 do
    Alcotest.(check int) "a * a^-1 = 1" 1 (Fec.Gf256.mul a (Fec.Gf256.inv a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Fec.Gf256.inv 0))

let test_gf_pow_log () =
  Alcotest.(check int) "alpha^0" 1 (Fec.Gf256.alpha_pow 0);
  Alcotest.(check int) "alpha^1" 2 (Fec.Gf256.alpha_pow 1);
  Alcotest.(check int) "alpha^255 wraps" 1 (Fec.Gf256.alpha_pow 255);
  Alcotest.(check int) "negative exponent" (Fec.Gf256.alpha_pow 254) (Fec.Gf256.alpha_pow (-1));
  (* the exponent and log tables agree: multiplying powers adds exponents *)
  for i = 0 to 254 do
    for j = 0 to 254 do
      let a = Fec.Gf256.alpha_pow i and b = Fec.Gf256.alpha_pow j in
      if Fec.Gf256.mul a b <> Fec.Gf256.alpha_pow (i + j) then
        Alcotest.failf "alpha^%d * alpha^%d" i j;
      if Fec.Gf256.div a b <> Fec.Gf256.alpha_pow (i - j) then
        Alcotest.failf "alpha^%d / alpha^%d" i j
    done
  done

let test_gf_poly_eval () =
  (* p(x) = 3 + 2x + x^2 at x = 1: 3 xor 2 xor 1 = 0 *)
  Alcotest.(check int) "eval at 1" 0 (Fec.Gf256.poly_eval [| 3; 2; 1 |] 1);
  Alcotest.(check int) "eval at 0 = constant" 3 (Fec.Gf256.poly_eval [| 3; 2; 1 |] 0)

(* RS(32, 24) through the generic face E15 and E18 use: 24 data bytes
   are one 32-byte codeword. A block with more than t = 4 byte errors
   comes back as received, for the CRC above to catch. *)
let rs = Fec.Reed_solomon.code ~n:32 ~k:24

let encode data =
  Bytes.of_string
    (Fec.Bitbuf.to_string (rs.encode (Fec.Bitbuf.of_string (Bytes.to_string data))))

let decode cw =
  Bytes.of_string
    (Fec.Bitbuf.to_string
       (rs.decode (Fec.Bitbuf.of_string (Bytes.to_string cw)) ~data_bits:(24 * 8)))

let data_of_seed seed =
  Bytes.init 24 (fun i -> Char.chr ((seed + (i * 37)) land 0xff))

let test_rs_params () =
  Alcotest.(check int) "n bytes per k" (32 * 8) (rs.coded_bits ~data_bits:(24 * 8));
  Alcotest.check_raises "odd parity"
    (Invalid_argument "Reed_solomon.create: n - k must be even") (fun () ->
      ignore (Fec.Reed_solomon.code ~n:31 ~k:24))

let test_rs_roundtrip_clean () =
  let data = data_of_seed 1 in
  let cw = encode data in
  Alcotest.(check int) "codeword length" 32 (Bytes.length cw);
  Alcotest.(check bytes) "systematic prefix" data (Bytes.sub cw 0 24);
  Alcotest.(check bytes) "roundtrip" data (decode cw)

let corrupt cw positions =
  let out = Bytes.copy cw in
  List.iter
    (fun (pos, delta) ->
      Bytes.set out pos (Char.chr (Char.code (Bytes.get out pos) lxor delta)))
    positions;
  out

let test_rs_corrects_up_to_t () =
  let data = data_of_seed 2 in
  let cw = encode data in
  List.iter
    (fun positions ->
      Alcotest.(check bytes)
        (Printf.sprintf "corrected %d errors" (List.length positions))
        data
        (decode (corrupt cw positions)))
    [
      [ (0, 0xff) ];
      [ (5, 0x01); (20, 0x80) ];
      [ (1, 0x10); (10, 0x22); (30, 0x7f) ];
      [ (0, 0x42); (8, 0x99); (16, 0x11); (31, 0xfe) ];
    ]

let test_rs_burst_of_t_bytes () =
  (* 4 consecutive corrupted bytes = a 32-bit burst: exactly why RS is
     the burst code of choice *)
  let data = data_of_seed 3 in
  let cw = encode data in
  let damaged = corrupt cw [ (12, 0xde); (13, 0xad); (14, 0xbe); (15, 0xef) ] in
  Alcotest.(check bytes) "burst corrected" data (decode damaged)

let test_rs_detects_beyond_t () =
  let data = data_of_seed 4 in
  let cw = encode data in
  (* 6 errors > t = 4: the decoder flags the block uncorrectable, so it
     comes back as received rather than miscorrected to another
     codeword *)
  let damaged =
    corrupt cw [ (0, 1); (3, 2); (7, 4); (11, 8); (19, 16); (27, 32) ]
  in
  Alcotest.(check bytes) "left as received" (Bytes.sub damaged 0 24)
    (decode damaged)

let prop_rs_roundtrip =
  QCheck2.Test.make ~name:"rs roundtrip for arbitrary data" ~count:200
    QCheck2.Gen.(string_size ~gen:char (return 24))
    (fun s ->
      Bytes.to_string (decode (encode (Bytes.of_string s))) = s)

let prop_rs_corrects_random_t_errors =
  QCheck2.Test.make ~name:"rs corrects any <= t random byte errors" ~count:200
    QCheck2.Gen.(
      triple
        (string_size ~gen:char (return 24))
        (int_range 1 4)
        (int_range 0 1_000_000))
    (fun (s, nerrors, seed) ->
      let rng = Sim.Rng.create ~seed in
      let damaged = encode (Bytes.of_string s) in
      (* distinct positions, nonzero deltas *)
      let seen = Hashtbl.create 8 in
      let placed = ref 0 in
      while !placed < nerrors do
        let pos = Sim.Rng.int rng 32 in
        if not (Hashtbl.mem seen pos) then begin
          Hashtbl.add seen pos ();
          let delta = 1 + Sim.Rng.int rng 255 in
          Bytes.set damaged pos
            (Char.chr (Char.code (Bytes.get damaged pos) lxor delta));
          incr placed
        end
      done;
      Bytes.to_string (decode damaged) = s)

let test_rs_as_generic_code () =
  let code = Fec.Reed_solomon.code ~n:64 ~k:48 in
  Alcotest.(check bool) "generic roundtrip" true
    (Test_fec.roundtrip_ok code "reed solomon as a generic code, spanning blocks");
  (* chunked across blocks: 100 bytes -> 3 blocks of 48 *)
  Alcotest.(check int) "coded size" (3 * 64 * 8)
    (code.Fec.Code.coded_bits ~data_bits:(100 * 8))

let test_rs_code_with_interleaver () =
  let code =
    Fec.Code.with_interleaver
      (Fec.Interleaver.create ~rows:8 ~cols:64)
      (Fec.Reed_solomon.code ~n:32 ~k:24)
  in
  Alcotest.(check bool) "composes" true (Test_fec.roundtrip_ok code "composed rs")

let suite =
  [
    Alcotest.test_case "gf field axioms" `Quick test_gf_field_axioms;
    Alcotest.test_case "gf inverses" `Quick test_gf_inverse;
    Alcotest.test_case "gf pow/log" `Quick test_gf_pow_log;
    Alcotest.test_case "gf poly eval" `Quick test_gf_poly_eval;
    Alcotest.test_case "rs params" `Quick test_rs_params;
    Alcotest.test_case "rs clean roundtrip" `Quick test_rs_roundtrip_clean;
    Alcotest.test_case "rs corrects <= t" `Quick test_rs_corrects_up_to_t;
    Alcotest.test_case "rs corrects t-byte burst" `Quick test_rs_burst_of_t_bytes;
    Alcotest.test_case "rs detects > t" `Quick test_rs_detects_beyond_t;
    QCheck_alcotest.to_alcotest prop_rs_roundtrip;
    QCheck_alcotest.to_alcotest prop_rs_corrects_random_t_errors;
    Alcotest.test_case "rs generic code" `Quick test_rs_as_generic_code;
    Alcotest.test_case "rs + interleaver" `Quick test_rs_code_with_interleaver;
  ]
