(* Payload descriptors: the byte image matches the string builder they
   replace, the codec writes that image, and descriptor equality is
   byte equality. *)

(* Reference image: the sprintf builder that [default_payload] must
   match from 10 bytes up. *)
let reference_payload ~size i =
  let header = Printf.sprintf "%010d|" i in
  if size <= String.length header then String.sub header 0 size
  else header ^ String.make (size - String.length header) 'x'

(* The I-frame layout of {!Frame.Wire}, written out by hand:
   tag(1) seq(4) len(2) hcrc16(2) payload(len) crc32(4). *)
let reference_iframe ~seq payload =
  let len = String.length payload in
  let b = Bytes.create (13 + len) in
  Bytes.set_uint8 b 0 0x01;
  Bytes.set_int32_be b 1 (Int32.of_int seq);
  Bytes.set_uint16_be b 5 len;
  Bytes.set_uint16_be b 7 (Frame.Crc.crc16 b ~pos:0 ~len:7);
  Bytes.blit_string payload 0 b 9 len;
  Bytes.set_int32_be b (9 + len) (Int32.of_int (Frame.Crc.crc32_int b ~pos:9 ~len));
  b

(* Indices spread over every digit count up to 2^40. *)
let gen_index =
  QCheck2.Gen.(
    let* bits = int_range 0 40 in
    int_range 0 ((1 lsl bits) - 1))

let gen_size = QCheck2.Gen.(oneof [ int_range 10 16; int_range 10 4096 ])

let prop_default_payload_image =
  QCheck2.Test.make ~name:"default_payload image equals the sprintf builder"
    ~count:1000
    QCheck2.Gen.(pair gen_size gen_index)
    ~print:QCheck2.Print.(pair int int)
    (fun (size, i) ->
      Frame.Payload.to_string (Workload.Arrivals.default_payload ~size i)
      = reference_payload ~size i)

let prop_codec_image =
  QCheck2.Test.make ~name:"codec writes the reference I-frame image" ~count:300
    QCheck2.Gen.(triple (int_range 0 1_000_000) gen_size gen_index)
    ~print:QCheck2.Print.(triple int int int)
    (fun (seq, size, i) ->
      let payload = Workload.Arrivals.default_payload ~size i in
      let frame = Frame.Wire.Data (Frame.Iframe.create ~seq ~payload) in
      let expected = reference_iframe ~seq (reference_payload ~size i) in
      let scratch = Frame.Codec.create_scratch ~capacity:16 () in
      let len = Frame.Codec.encode_scratch_into scratch frame in
      Bytes.equal
           (Bytes.sub (Frame.Codec.scratch_buffer scratch) 0 len)
           expected)

(* Short images over a two-letter alphabet that includes the fill, so
   stems ending in 'x' (netstack bodies) and equal images are common. *)
let gen_image = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'x' ]) (int_range 0 6))

(* A payload built either from its image or from a stem plus length. *)
let gen_payload =
  QCheck2.Gen.(
    oneof
      [
        map Frame.Payload.of_string gen_image;
        map2
          (fun stem pad -> Frame.Payload.make ~stem ~len:(String.length stem + pad))
          gen_image (int_range 0 4);
      ])

let print_payload = Frame.Payload.to_string

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string p) = p" ~count:500 gen_payload
    ~print:print_payload
    (fun p ->
      let s = Frame.Payload.to_string p in
      Frame.Payload.equal (Frame.Payload.of_string s) p
      && String.length s = Frame.Payload.length p
      && Frame.Payload.prefix p 3 = String.sub s 0 (min 3 (String.length s)))

let prop_equal_is_image_equality =
  QCheck2.Test.make ~name:"equal holds exactly when the images are equal"
    ~count:1000
    QCheck2.Gen.(pair gen_payload gen_payload)
    ~print:QCheck2.Print.(pair print_payload print_payload)
    (fun (a, b) ->
      let same = Frame.Payload.to_string a = Frame.Payload.to_string b in
      (* equal payloads hash alike: each finds the other in a table *)
      let tbl = Frame.Payload.Tbl.create 1 in
      Frame.Payload.Tbl.replace tbl a ();
      Frame.Payload.equal a b = same && Frame.Payload.Tbl.mem tbl b = same)

let test_canonical_stem () =
  let p = Frame.Payload.make ~stem:"ab|xx" ~len:8 in
  Alcotest.(check bool) "fill stripped from the stem" true
    (Frame.Payload.equal p (Frame.Payload.make ~stem:"ab|" ~len:8));
  Alcotest.(check string) "image" "ab|xxxxx" (Frame.Payload.to_string p);
  Alcotest.(check bool) "equal to its image" true
    (Frame.Payload.equal p (Frame.Payload.of_string "ab|xxxxx"));
  Alcotest.check_raises "length below the stem"
    (Invalid_argument "Payload.make: length shorter than stem") (fun () ->
      ignore (Frame.Payload.make ~stem:"abc" ~len:2 : Frame.Payload.t))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_default_payload_image;
    QCheck_alcotest.to_alcotest prop_codec_image;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_equal_is_image_equality;
    Alcotest.test_case "canonical stem" `Quick test_canonical_stem;
  ]
