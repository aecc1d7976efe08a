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

(* The two forms. Synthetic payloads come from [default_payload] and
   [synthetic] at the edges of the form's domain; stem payloads from
   stems that look synthetic (possibly cut or padded), end in the fill,
   are digits without the separator, or are arbitrary bytes. Every
   canonical stem fits in 16 bytes, so a trace label rebuilds it. *)
let gen_offer_index =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ 0; 9_999_999_999; 10_000_000_000 ];
        int_range 0 4_200;
        int_range 0 10_000_000_000;
      ])

let gen_len = QCheck2.Gen.(oneof [ oneofl [ 10; 11; 12; 1024 ]; int_range 0 40 ])

let gen_stem =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun i cut -> String.sub (Printf.sprintf "%010d|" i) 0 cut)
          (int_range 0 9_999_999_999) (int_range 0 11);
        map2
          (fun i pad -> Printf.sprintf "%010d|" i ^ String.make pad 'x')
          gen_offer_index (int_range 0 3);
        map (fun s -> s ^ "x") (string_size ~gen:char (int_range 0 15));
        string_size ~gen:(char_range '0' '9') (int_range 0 12);
        string_size ~gen:char (int_range 0 16);
      ])

let gen_two_forms =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun size i -> Workload.Arrivals.default_payload ~size i)
          (int_range 1 1024) gen_offer_index;
        map2
          (fun index len -> Frame.Payload.synthetic ~index ~len)
          gen_offer_index gen_len;
        map2
          (fun stem len ->
            Frame.Payload.make ~stem ~len:(max len (String.length stem)))
          gen_stem gen_len;
        map2
          (fun stem pad -> Frame.Payload.of_string (stem ^ String.make pad 'x'))
          gen_stem (int_range 0 3);
      ])

(* The offer index a synthetic image names, or -1. *)
let reference_index s =
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  if
    n >= 11
    && String.for_all is_digit (String.sub s 0 10)
    && s.[10] = '|'
    && String.for_all (( = ) 'x') (String.sub s 11 (n - 11))
  then int_of_string (String.sub s 0 10)
  else -1

let print_image p = Printf.sprintf "%S" (Frame.Payload.to_string p)

let prop_two_forms =
  QCheck2.Test.make ~name:"two forms: equality, hash, ids, rebuilds, bytes"
    ~count:2000
    QCheck2.Gen.(triple gen_two_forms gen_two_forms (int_range (-1) 40))
    ~print:QCheck2.Print.(triple print_image print_image int)
    (fun (a, b, n) ->
      let module P = Frame.Payload in
      let s = P.to_string a and len = P.length a in
      let same = s = P.to_string b in
      let tbl = P.Tbl.create 1 and index = P.Index.create () in
      P.Tbl.replace tbl a ();
      let id_a = P.Index.add index a in
      let id_b = P.Index.add index b in
      let blitted = Bytes.make (len + 4) '#' in
      P.blit a blitted 2;
      P.equal a b = same
      && P.Tbl.mem tbl b = same
      && (id_a = id_b) = same
      && P.equal (P.Index.key index id_b) b
      && P.equal (P.of_string s) a
      && P.equal (P.make ~stem:(P.prefix a 16) ~len) a
      && P.prefix a n = String.sub s 0 (max 0 (min n len))
      && Bytes.to_string blitted = "##" ^ s ^ "##"
      && String.length s = len
      && P.index a = reference_index s)

(* A stream of payloads, most of them synthetic, whose indices and
   lengths repeat (lengths 12 and 1024 hash to the same parity, so they
   collide): each gets the first-seen id of its image, also after the
   index's tables double. *)
let gen_stream_payload =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun index len -> Frame.Payload.synthetic ~index ~len)
            (oneof [ int_range 0 15; int_range 0 4_100 ])
            (oneofl [ 11; 12; 1024 ]) );
        (1, gen_two_forms);
      ])

let prop_index_ids =
  QCheck2.Test.make ~name:"Index ids are first-seen ids of the image" ~count:300
    QCheck2.Gen.(list_size (int_range 0 300) gen_stream_payload)
    ~print:QCheck2.Print.(list print_image)
    (fun payloads ->
      let index = Frame.Payload.Index.create () and seen = Hashtbl.create 64 in
      List.for_all
        (fun p ->
          let image = Frame.Payload.to_string p in
          let expected =
            match Hashtbl.find_opt seen image with
            | Some id -> id
            | None ->
                let id = Hashtbl.length seen in
                Hashtbl.add seen image id;
                id
          in
          Frame.Payload.Index.add index p = expected
          && Frame.Payload.Index.length index = Hashtbl.length seen)
        payloads)

(* An index read from a trace can be anything: no table may be sized
   by it. *)
let test_sparse_index_stays_small () =
  let index = Frame.Payload.Index.create () in
  let far = [ 9_999_999_999; 9_999_999_998; 5_000_000_000; 1 lsl 30 ] in
  let bytes0 = Gc.allocated_bytes () in
  let ids =
    List.map
      (fun i ->
        Frame.Payload.Index.add index (Frame.Payload.synthetic ~index:i ~len:1024))
      far
  in
  let grown = Gc.allocated_bytes () -. bytes0 in
  Alcotest.(check (list int)) "first-seen ids" [ 0; 1; 2; 3 ] ids;
  Alcotest.(check int) "found again" 0
    (Frame.Payload.Index.add index
       (Workload.Arrivals.default_payload ~size:1024 9_999_999_999));
  if grown > 65_536. then
    Alcotest.failf "four sparse indices allocated %.0f bytes" grown

let suite =
  [
    QCheck_alcotest.to_alcotest prop_default_payload_image;
    QCheck_alcotest.to_alcotest prop_codec_image;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_equal_is_image_equality;
    Alcotest.test_case "canonical stem" `Quick test_canonical_stem;
    QCheck_alcotest.to_alcotest prop_two_forms;
    QCheck_alcotest.to_alcotest prop_index_ids;
    Alcotest.test_case "a sparse index stays small" `Quick
      test_sparse_index_stays_small;
  ]
