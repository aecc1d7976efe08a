(* CRC known-answer and error-detection tests. *)

let crc16_of s =
  Frame.Crc.crc16 (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let crc32_of s =
  Frame.Crc.crc32_int (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let test_crc16_check_value () =
  (* CRC-16/CCITT-FALSE("123456789") = 0x29B1 *)
  Alcotest.(check int) "check vector" 0x29B1 (crc16_of "123456789")

let test_crc32_check_value () =
  (* CRC-32/IEEE("123456789") = 0xCBF43926 *)
  Alcotest.(check int) "check vector" 0xCBF43926 (crc32_of "123456789")

let test_crc16_empty () =
  Alcotest.(check int) "empty = init" 0xFFFF (crc16_of "")

let test_crc32_empty () =
  Alcotest.(check int) "empty" 0 (crc32_of "")

let test_crc16_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "slice" 0x29B1 (Frame.Crc.crc16 b ~pos:2 ~len:9)

let test_crc32_chaining () =
  let whole = crc32_of "123456789" in
  let b = Bytes.of_string "123456789" in
  let first = Frame.Crc.crc32_int b ~pos:0 ~len:4 in
  let second = Frame.Crc.crc32_int ~init:first b ~pos:4 ~len:5 in
  Alcotest.(check int) "chained = whole" whole second

let test_out_of_bounds () =
  let b = Bytes.create 4 in
  Alcotest.check_raises "crc16 oob" (Invalid_argument "Crc.crc16: slice out of bounds")
    (fun () -> ignore (Frame.Crc.crc16 b ~pos:2 ~len:3));
  Alcotest.check_raises "crc32 oob" (Invalid_argument "Crc.crc32: slice out of bounds")
    (fun () -> ignore (Frame.Crc.crc32_int b ~pos:0 ~len:5))

let gen_payload = QCheck2.Gen.(string_size ~gen:char (int_range 1 200))

let prop_crc16_detects_single_bit_flip =
  QCheck2.Test.make ~name:"crc16 detects any single-bit flip" ~count:300
    QCheck2.Gen.(pair gen_payload (int_range 0 10_000))
    (fun (s, bit_seed) ->
      let b = Bytes.of_string s in
      let before = Frame.Crc.crc16 b ~pos:0 ~len:(Bytes.length b) in
      let bit = bit_seed mod (8 * Bytes.length b) in
      Test_codec.flip_bit b bit;
      let after = Frame.Crc.crc16 b ~pos:0 ~len:(Bytes.length b) in
      before <> after)

let prop_crc32_detects_single_bit_flip =
  QCheck2.Test.make ~name:"crc32 detects any single-bit flip" ~count:300
    QCheck2.Gen.(pair gen_payload (int_range 0 10_000))
    (fun (s, bit_seed) ->
      let b = Bytes.of_string s in
      let before = Frame.Crc.crc32_int b ~pos:0 ~len:(Bytes.length b) in
      let bit = bit_seed mod (8 * Bytes.length b) in
      Test_codec.flip_bit b bit;
      let after = Frame.Crc.crc32_int b ~pos:0 ~len:(Bytes.length b) in
      before <> after)

let prop_crc16_detects_double_bit_flip =
  (* CCITT-FALSE detects all 2-bit errors within its 32751-bit design
     block length; every frame in this codebase is far shorter *)
  QCheck2.Test.make ~name:"crc16 detects any double-bit flip" ~count:300
    QCheck2.Gen.(triple gen_payload (int_range 0 10_000) (int_range 1 10_000))
    (fun (s, seed_a, seed_b) ->
      let b = Bytes.of_string s in
      let bits = 8 * Bytes.length b in
      let i = seed_a mod bits in
      let j = (i + 1 + (seed_b mod (bits - 1))) mod bits in
      QCheck2.assume (i <> j);
      let before = Frame.Crc.crc16 b ~pos:0 ~len:(Bytes.length b) in
      Test_codec.flip_bit b i;
      Test_codec.flip_bit b j;
      let after = Frame.Crc.crc16 b ~pos:0 ~len:(Bytes.length b) in
      before <> after)

let prop_crc_deterministic =
  QCheck2.Test.make ~name:"crc is a pure function" ~count:200 gen_payload
    (fun s -> crc16_of s = crc16_of s
              && crc32_of s = crc32_of s)

let suite =
  [
    Alcotest.test_case "crc16 check value" `Quick test_crc16_check_value;
    Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
    Alcotest.test_case "crc16 empty" `Quick test_crc16_empty;
    Alcotest.test_case "crc32 empty" `Quick test_crc32_empty;
    Alcotest.test_case "crc16 slice" `Quick test_crc16_slice;
    Alcotest.test_case "crc32 chaining" `Quick test_crc32_chaining;
    Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
    QCheck_alcotest.to_alcotest prop_crc16_detects_single_bit_flip;
    QCheck_alcotest.to_alcotest prop_crc32_detects_single_bit_flip;
    QCheck_alcotest.to_alcotest prop_crc16_detects_double_bit_flip;
    QCheck_alcotest.to_alcotest prop_crc_deterministic;
  ]
