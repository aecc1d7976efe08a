(* FEC substrate tests: bit buffers, Hamming, convolutional/Viterbi,
   interleaver, and code composition. *)

let bits_of_string s = Fec.Bitbuf.of_string s

let of_bits l =
  let b = Fec.Bitbuf.create () in
  List.iter (Fec.Bitbuf.push b) l;
  b

let to_bits b = List.init (Fec.Bitbuf.length b) (Fec.Bitbuf.get b)

let bits_equal a b = to_bits a = to_bits b

(* Encode then decode an uncorrupted string. *)
let roundtrip_ok (code : Fec.Code.t) s =
  let src = bits_of_string s in
  let data_bits = Fec.Bitbuf.length src in
  Fec.Bitbuf.to_string (code.decode (code.encode src) ~data_bits) = s

let test_bitbuf_roundtrip () =
  let b = bits_of_string "OCaml" in
  Alcotest.(check int) "length" 40 (Fec.Bitbuf.length b);
  Alcotest.(check string) "to_string" "OCaml" (Fec.Bitbuf.to_string b)

let test_bitbuf_push_get () =
  let b = Fec.Bitbuf.create () in
  List.iter (Fec.Bitbuf.push b) [ true; false; true; true ];
  Alcotest.(check int) "length" 4 (Fec.Bitbuf.length b);
  Alcotest.(check (list bool)) "bits" [ true; false; true; true ]
    (to_bits b)

let test_bitbuf_set () =
  let b = of_bits [ false; false; false ] in
  Fec.Bitbuf.set b 1 true;
  Alcotest.(check (list bool)) "set" [ false; true; false ] (to_bits b)

let test_bitbuf_sub_append () =
  let b = of_bits [ true; false; true; false; true ] in
  let s = Fec.Bitbuf.sub b ~pos:1 ~len:3 in
  Alcotest.(check (list bool)) "sub" [ false; true; false ] (to_bits s);
  let d = Fec.Bitbuf.create () in
  Fec.Bitbuf.append d s;
  Fec.Bitbuf.append d s;
  Alcotest.(check int) "append length" 6 (Fec.Bitbuf.length d)

(* --- Hamming(7,4) --- *)

let test_hamming_roundtrip () =
  let src = bits_of_string "Hello, LAMS" in
  let coded = Fec.Hamming.encode src in
  let decoded = Fec.Hamming.decode coded ~data_bits:(Fec.Bitbuf.length src) in
  Alcotest.(check bool) "roundtrip" true (bits_equal src decoded)

let test_hamming_rate () =
  Alcotest.(check int) "8 data bits -> 14 coded" 14
    (Fec.Hamming.coded_bits ~data_bits:8);
  Alcotest.(check int) "padding to nibble" 7 (Fec.Hamming.coded_bits ~data_bits:3)

let test_hamming_corrects_single_error_per_block () =
  let src = bits_of_string "x" in
  let coded = Fec.Hamming.encode src in
  for bit = 0 to Fec.Bitbuf.length coded - 1 do
    let corrupted = Fec.Bitbuf.sub coded ~pos:0 ~len:(Fec.Bitbuf.length coded) in
    Fec.Bitbuf.set corrupted bit (not (Fec.Bitbuf.get corrupted bit));
    let decoded = Fec.Hamming.decode corrupted ~data_bits:8 in
    if not (bits_equal src decoded) then
      Alcotest.failf "failed to correct error at bit %d" bit
  done

let test_hamming_string_roundtrip () =
  let s = "the quick brown fox" in
  Alcotest.(check bool) "roundtrip" true (roundtrip_ok Fec.Code.hamming74 s)

let prop_hamming_roundtrip =
  QCheck2.Test.make ~name:"hamming roundtrip on arbitrary bits" ~count:200
    QCheck2.Gen.(list_size (int_range 1 120) bool)
    (fun bits ->
      let src = of_bits bits in
      let decoded =
        Fec.Hamming.decode (Fec.Hamming.encode src) ~data_bits:(List.length bits)
      in
      bits_equal src decoded)

let prop_hamming_single_error =
  QCheck2.Test.make ~name:"hamming corrects one error per block" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 4 64) bool) (int_range 0 10_000))
    (fun (bits, where) ->
      let src = of_bits bits in
      let coded = Fec.Hamming.encode src in
      let n = Fec.Bitbuf.length coded in
      let bit = where mod n in
      Fec.Bitbuf.set coded bit (not (Fec.Bitbuf.get coded bit));
      let decoded = Fec.Hamming.decode coded ~data_bits:(List.length bits) in
      bits_equal src decoded)

(* --- Convolutional code --- *)

let test_conv_roundtrip () =
  let cc = Fec.Conv_code.default in
  let src = bits_of_string "conv code" in
  let coded = Fec.Conv_code.encode cc src in
  Alcotest.(check int) "coded length" (2 * (72 + 6)) (Fec.Bitbuf.length coded);
  let decoded = Fec.Conv_code.decode cc coded ~data_bits:72 in
  Alcotest.(check bool) "roundtrip" true (bits_equal src decoded)

let test_conv_corrects_scattered_errors () =
  let cc = Fec.Conv_code.default in
  let src = bits_of_string "Viterbi test payload" in
  let data_bits = Fec.Bitbuf.length src in
  let coded = Fec.Conv_code.encode cc src in
  (* four errors, far apart: within the free-distance budget *)
  List.iter
    (fun bit -> Fec.Bitbuf.set coded bit (not (Fec.Bitbuf.get coded bit)))
    [ 3; 60; 130; 250 ];
  let decoded = Fec.Conv_code.decode cc coded ~data_bits in
  Alcotest.(check bool) "corrected" true (bits_equal src decoded)

let test_conv_length_mismatch () =
  let cc = Fec.Conv_code.default in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Conv_code.decode: coded length mismatch") (fun () ->
      ignore (Fec.Conv_code.decode cc (of_bits [ true ]) ~data_bits:8))

let prop_conv_roundtrip =
  QCheck2.Test.make ~name:"conv roundtrip on arbitrary bits" ~count:100
    QCheck2.Gen.(list_size (int_range 1 150) bool)
    (fun bits ->
      let cc = Fec.Conv_code.default in
      let src = of_bits bits in
      let decoded =
        Fec.Conv_code.decode cc (Fec.Conv_code.encode cc src)
          ~data_bits:(List.length bits)
      in
      bits_equal src decoded)

let prop_conv_corrects_two_errors =
  QCheck2.Test.make ~name:"conv corrects any two separated errors" ~count:100
    QCheck2.Gen.(triple (list_size (int_range 30 80) bool) (int_range 0 10_000) (int_range 0 10_000))
    (fun (bits, e1, e2) ->
      let cc = Fec.Conv_code.default in
      let src = of_bits bits in
      let coded = Fec.Conv_code.encode cc src in
      let n = Fec.Bitbuf.length coded in
      let b1 = e1 mod n and b2 = e2 mod n in
      Fec.Bitbuf.set coded b1 (not (Fec.Bitbuf.get coded b1));
      if b2 <> b1 then Fec.Bitbuf.set coded b2 (not (Fec.Bitbuf.get coded b2));
      let decoded = Fec.Conv_code.decode cc coded ~data_bits:(List.length bits) in
      bits_equal src decoded)

(* --- Interleaver --- *)

let prop_conv_differential =
  (* the fast table-driven decoder must agree bit-for-bit with the
     reference trellis on arbitrary noise, including flip counts far
     beyond the correction radius where only the shared tie-breaking rule
     pins down the answer *)
  QCheck2.Test.make ~name:"fast viterbi = reference viterbi" ~count:150
    QCheck2.Gen.(
      pair (list_size (int_range 1 120) bool)
        (list_size (int_range 0 12) (int_range 0 100_000)))
    (fun (bits, flips) ->
      let cc = Fec.Conv_code.default in
      let data_bits = List.length bits in
      let coded = Fec.Conv_code.encode cc (of_bits bits) in
      let n = Fec.Bitbuf.length coded in
      List.iter
        (fun f ->
          let b = f mod n in
          Fec.Bitbuf.set coded b (not (Fec.Bitbuf.get coded b)))
        flips;
      bits_equal
        (Fec.Conv_code.decode cc coded ~data_bits)
        (Fec.Conv_code.decode_reference cc coded ~data_bits))

let test_conv_reference_roundtrip () =
  (* the oracle itself still decodes clean input *)
  let cc = Fec.Conv_code.default in
  let src = bits_of_string "reference path" in
  let decoded =
    Fec.Conv_code.decode_reference cc (Fec.Conv_code.encode cc src)
      ~data_bits:(Fec.Bitbuf.length src)
  in
  Alcotest.(check bool) "roundtrip" true (bits_equal src decoded)

let test_interleaver_inverse () =
  let il = Fec.Interleaver.create ~rows:4 ~cols:8 in
  let src = bits_of_string "abcd" in
  let deinterleaved = Fec.Interleaver.deinterleave il (Fec.Interleaver.interleave il src) in
  Alcotest.(check bool) "inverse" true (bits_equal src deinterleaved)

let test_interleaver_disperses_burst () =
  let rows = 8 and cols = 16 in
  let il = Fec.Interleaver.create ~rows ~cols in
  let n = rows * cols in
  let src = of_bits (List.init n (fun _ -> false)) in
  let tx = Fec.Interleaver.interleave il src in
  (* burst of length [rows] on the channel *)
  for bit = 24 to 24 + rows - 1 do
    Fec.Bitbuf.set tx bit true
  done;
  let rx = Fec.Interleaver.deinterleave il tx in
  (* after deinterleaving, no run of [cols] bits holds more than one error *)
  let worst = ref 0 in
  for start = 0 to n - cols do
    let count = ref 0 in
    for i = start to start + cols - 1 do
      if Fec.Bitbuf.get rx i then incr count
    done;
    worst := max !worst !count
  done;
  if !worst > 1 then Alcotest.failf "burst not dispersed: %d errors in a window" !worst

let test_interleaver_requires_block_multiple () =
  let il = Fec.Interleaver.create ~rows:2 ~cols:3 in
  Alcotest.check_raises "bad length"
    (Invalid_argument "Interleaver: length is not a multiple of the block size")
    (fun () -> ignore (Fec.Interleaver.interleave il (of_bits [ true ])))

let test_interleaver_pad () =
  let il = Fec.Interleaver.create ~rows:2 ~cols:3 in
  let padded = Fec.Interleaver.pad_to_block il (of_bits [ true ]) in
  Alcotest.(check int) "padded to 6" 6 (Fec.Bitbuf.length padded);
  Alcotest.(check bool) "first bit kept" true (Fec.Bitbuf.get padded 0)

let prop_interleave_is_permutation =
  QCheck2.Test.make ~name:"interleave/deinterleave are inverse permutations"
    ~count:200
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 8) (list_size (int_range 0 64) bool))
    (fun (rows, cols, bits) ->
      let il = Fec.Interleaver.create ~rows ~cols in
      let src = Fec.Interleaver.pad_to_block il (of_bits bits) in
      let fwd = Fec.Interleaver.interleave il src in
      bits_equal src (Fec.Interleaver.deinterleave il fwd)
      && Fec.Bitbuf.length fwd = Fec.Bitbuf.length src)

(* --- Code composition --- *)

let test_code_roundtrips () =
  List.iter
    (fun code ->
      if not (roundtrip_ok code "round trip me please") then
        Alcotest.failf "roundtrip failed for %s" code.Fec.Code.name)
    [
      Fec.Code.identity;
      Fec.Code.hamming74;
      Fec.Code.conv_default;
      Fec.Code.with_interleaver (Fec.Interleaver.create ~rows:8 ~cols:8)
        Fec.Code.conv_default;
    ]

let test_code_rates () =
  let r_ident = Fec.Code.rate Fec.Code.identity ~data_bits:100 in
  Alcotest.(check (float 1e-9)) "identity rate 1" 1. r_ident;
  let r_hamming = Fec.Code.rate Fec.Code.hamming74 ~data_bits:100 in
  if r_hamming > 4. /. 7. +. 0.01 || r_hamming < 0.5 then
    Alcotest.failf "hamming rate %g" r_hamming

let test_composed_code_beats_bare_code_on_burst () =
  (* a burst of 8 errors defeats the bare convolutional code but the
     8-row interleaver disperses it into correctable isolated errors *)
  let data = "burst-test-data!" in
  let src = bits_of_string data in
  let data_bits = Fec.Bitbuf.length src in
  let il = Fec.Interleaver.create ~rows:8 ~cols:32 in
  let composed = Fec.Code.with_interleaver il Fec.Code.conv_default in
  let tx = composed.Fec.Code.encode src in
  for bit = 40 to 47 do
    Fec.Bitbuf.set tx bit (not (Fec.Bitbuf.get tx bit))
  done;
  let decoded = composed.Fec.Code.decode tx ~data_bits in
  Alcotest.(check bool) "interleaved code corrects the burst" true
    (bits_equal src decoded)

let suite =
  [
    Alcotest.test_case "bitbuf roundtrip" `Quick test_bitbuf_roundtrip;
    Alcotest.test_case "bitbuf push/get" `Quick test_bitbuf_push_get;
    Alcotest.test_case "bitbuf set" `Quick test_bitbuf_set;
    Alcotest.test_case "bitbuf sub/append" `Quick test_bitbuf_sub_append;
    Alcotest.test_case "hamming roundtrip" `Quick test_hamming_roundtrip;
    Alcotest.test_case "hamming rate" `Quick test_hamming_rate;
    Alcotest.test_case "hamming corrects single error" `Quick
      test_hamming_corrects_single_error_per_block;
    Alcotest.test_case "hamming string roundtrip" `Quick test_hamming_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_hamming_roundtrip;
    QCheck_alcotest.to_alcotest prop_hamming_single_error;
    Alcotest.test_case "conv roundtrip" `Quick test_conv_roundtrip;
    Alcotest.test_case "conv corrects scattered errors" `Quick
      test_conv_corrects_scattered_errors;
    Alcotest.test_case "conv length mismatch" `Quick test_conv_length_mismatch;
    QCheck_alcotest.to_alcotest prop_conv_roundtrip;
    QCheck_alcotest.to_alcotest prop_conv_corrects_two_errors;
    Alcotest.test_case "conv reference decoder roundtrip" `Quick
      test_conv_reference_roundtrip;
    QCheck_alcotest.to_alcotest prop_conv_differential;
    Alcotest.test_case "interleaver inverse" `Quick test_interleaver_inverse;
    Alcotest.test_case "interleaver disperses burst" `Quick
      test_interleaver_disperses_burst;
    Alcotest.test_case "interleaver block multiple" `Quick
      test_interleaver_requires_block_multiple;
    Alcotest.test_case "interleaver pad" `Quick test_interleaver_pad;
    QCheck_alcotest.to_alcotest prop_interleave_is_permutation;
    Alcotest.test_case "code roundtrips" `Quick test_code_roundtrips;
    Alcotest.test_case "code rates" `Quick test_code_rates;
    Alcotest.test_case "interleaved code corrects burst" `Quick
      test_composed_code_beats_bare_code_on_burst;
  ]
