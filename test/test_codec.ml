(* Wire codec tests: roundtrips, size accounting, corruption
   classification. *)

(* Payloads compare as images; every other field structurally. *)
let same_iframe (x : Frame.Iframe.t) (y : Frame.Iframe.t) =
  x.seq = y.seq && Frame.Payload.equal x.payload y.payload

let wire = Alcotest.testable Frame.Wire.pp (fun a b ->
    match (a, b) with
    | Frame.Wire.Data x, Frame.Wire.Data y -> same_iframe x y
    | _ -> a = b)

(* A fresh copy of the frame's encoding, through the senders' scratch. *)
let encode frame =
  let scratch = Frame.Codec.create_scratch () in
  let len = Frame.Codec.encode_scratch_into scratch frame in
  Bytes.sub (Frame.Codec.scratch_buffer scratch) 0 len

(* Flips bit [i] of [b], most significant bit of byte 0 first. *)
let flip_bit b i =
  let byte = i / 8 and bit = 7 - (i mod 8) in
  Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl bit))

let data ~seq s =
  Frame.Wire.Data (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string s))

let roundtrip frame =
  match Frame.Codec.decode (encode frame) with
  | Ok f -> f
  | Error _ -> Alcotest.fail "decode failed"

let test_iframe_roundtrip () =
  let f = data ~seq:12345 "hello world" in
  Alcotest.check wire "roundtrip" f (roundtrip f)

let test_iframe_empty_payload () =
  let f = data ~seq:0 "" in
  Alcotest.check wire "roundtrip" f (roundtrip f)

let test_checkpoint_roundtrip () =
  let f =
    Frame.Wire.Control
      (Frame.Cframe.checkpoint ~cp_seq:42 ~issue_time:1.2345 ~stop_go:true
         ~enforced:false ~next_expected:99 ~naks:[| 3; 17; 64 |])
  in
  Alcotest.check wire "roundtrip" f (roundtrip f)

let test_enforced_empty_naks_roundtrip () =
  let f =
    Frame.Wire.Control
      (Frame.Cframe.checkpoint ~cp_seq:0 ~issue_time:0. ~stop_go:false
         ~enforced:true ~next_expected:0 ~naks:[||])
  in
  Alcotest.check wire "roundtrip" f (roundtrip f)

let test_request_nak_roundtrip () =
  let f = Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:7.5) in
  Alcotest.check wire "roundtrip" f (roundtrip f)

let test_hdlc_roundtrips () =
  List.iter
    (fun kind ->
      let f = Frame.Wire.Hdlc_control (Frame.Hframe.create ~kind ~nr:77 ~pf:true) in
      Alcotest.check wire "roundtrip" f (roundtrip f))
    [ Frame.Hframe.Rr; Frame.Hframe.Rej; Frame.Hframe.Srej ]

let test_size_matches_encoding () =
  let frames =
    [
      data ~seq:1 "abc";
      Frame.Wire.Control
        (Frame.Cframe.checkpoint ~cp_seq:1 ~issue_time:0.5 ~stop_go:false
           ~enforced:false ~next_expected:3 ~naks:[| 1; 2 |]);
      Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:0.1);
      Frame.Wire.Hdlc_control (Frame.Hframe.create ~kind:Frame.Hframe.Rr ~nr:0 ~pf:false);
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check int) "size_bytes = encoded length" (Frame.Wire.size_bytes f)
        (Bytes.length (encode f)))
    frames

let test_payload_corruption_identified () =
  let f = data ~seq:321 "payload-data" in
  let b = encode f in
  (* flip a payload bit: payload starts at byte 9 *)
  flip_bit b (8 * 10);
  match Frame.Codec.decode b with
  | Error (Frame.Codec.Payload_corrupt { seq }) ->
      Alcotest.(check int) "seq recovered" 321 seq
  | other ->
      Alcotest.failf "expected Payload_corrupt, got %s"
        (match other with Ok _ -> "Ok" | Error _ -> "another error")

let test_header_corruption_detected () =
  let f = data ~seq:321 "payload" in
  let b = encode f in
  (* flip a bit in the seq field (bytes 1-4) *)
  flip_bit b 10;
  match Frame.Codec.decode b with
  | Error Frame.Codec.Header_corrupt -> ()
  | _ -> Alcotest.fail "expected Header_corrupt"

let test_control_corruption_detected () =
  let f =
    Frame.Wire.Control
      (Frame.Cframe.checkpoint ~cp_seq:1 ~issue_time:0.5 ~stop_go:false
         ~enforced:false ~next_expected:3 ~naks:[| 9 |])
  in
  let b = encode f in
  flip_bit b 20;
  match Frame.Codec.decode b with
  | Error Frame.Codec.Control_corrupt -> ()
  | _ -> Alcotest.fail "expected Control_corrupt"

let test_truncated () =
  let f = data ~seq:1 "abcdef" in
  let b = encode f in
  let cut = Bytes.sub b 0 (Bytes.length b - 3) in
  match Frame.Codec.decode cut with
  | Error Frame.Codec.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

let test_unknown_tag () =
  let b = Bytes.make 8 '\255' in
  match Frame.Codec.decode b with
  | Error (Frame.Codec.Unknown_tag 0xff) -> ()
  | _ -> Alcotest.fail "expected Unknown_tag"

let test_empty_buffer () =
  match Frame.Codec.decode Bytes.empty with
  | Error Frame.Codec.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

let gen_frame =
  let open QCheck2.Gen in
  let payload = string_size ~gen:char (int_range 0 300) in
  let iframe = map2 (fun seq p -> data ~seq p) (int_range 0 1_000_000) payload
  in
  let checkpoint =
    let* cp_seq = int_range 0 100_000 in
    let* issue_time = float_range 0. 1e6 in
    let* stop_go = bool in
    let* enforced = bool in
    let* next_expected = int_range 0 1_000_000 in
    let* naks = array_size (int_range 0 40) (int_range 0 1_000_000) in
    return
      (Frame.Wire.Control
         (Frame.Cframe.checkpoint ~cp_seq ~issue_time ~stop_go ~enforced
            ~next_expected ~naks))
  in
  let request = map (fun t -> Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:t))
      (float_range 0. 1e6) in
  let hdlc =
    map3 (fun k nr pf ->
        let kind = match k mod 3 with 0 -> Frame.Hframe.Rr | 1 -> Frame.Hframe.Rej | _ -> Frame.Hframe.Srej in
        Frame.Wire.Hdlc_control (Frame.Hframe.create ~kind ~nr ~pf))
      (int_range 0 2) (int_range 0 1_000_000) bool
  in
  oneof [ iframe; checkpoint; request; hdlc ]

let prop_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrip for arbitrary frames" ~count:500
    gen_frame
    (fun f ->
      match Frame.Codec.decode (encode f) with
      | Ok f' -> Alcotest.equal wire f f'
      | Error _ -> false)

let prop_any_single_flip_detected =
  QCheck2.Test.make ~name:"any single bit flip is detected (never silent)"
    ~count:500
    QCheck2.Gen.(pair gen_frame (int_range 0 100_000))
    (fun (f, bit_seed) ->
      let b = encode f in
      let bit = bit_seed mod (8 * Bytes.length b) in
      flip_bit b bit;
      match Frame.Codec.decode b with
      | Error _ -> true
      | Ok f' -> (
          (* flipping a bit inside the length field may produce a frame
             that still parses only if it equals the original — otherwise
             the flip went undetected *)
          match (f, f') with
          | Frame.Wire.Data a, Frame.Wire.Data b' -> same_iframe a b'
          | _ -> false))

let prop_flip_never_misidentifies_seq =
  QCheck2.Test.make
    ~name:"single-bit flip never mislabels Payload_corrupt with a wrong seq"
    ~count:500
    QCheck2.Gen.(
      triple (int_range 0 1_000_000)
        (string_size ~gen:char (int_range 1 300))
        (int_range 0 100_000))
    (fun (seq, payload, bit_seed) ->
      (* the LAMS receiver NAKs the seq reported by Payload_corrupt; a
         wrong seq there would make it NAK an innocent frame, so the
         header CRC must catch every header flip before the payload CRC
         gets to speak *)
      let payload = Frame.Payload.of_string payload in
      let f = Frame.Wire.Data (Frame.Iframe.create ~seq ~payload) in
      let b = encode f in
      let bit = bit_seed mod (8 * Bytes.length b) in
      flip_bit b bit;
      match Frame.Codec.decode b with
      | Error (Frame.Codec.Payload_corrupt { seq = reported }) ->
          reported = seq
      | Ok (Frame.Wire.Data f') ->
          same_iframe f' (Frame.Iframe.create ~seq ~payload)
      | Ok _ -> false
      | Error _ -> true)

let test_scratch_roundtrip () =
  (* one scratch serves frames of different kinds and sizes back to back,
     growing past its 2048 bytes for the first *)
  let scratch = Frame.Codec.create_scratch () in
  let frames =
    [
      data ~seq:7 (String.make 3000 'q');
      Frame.Wire.Control
        (Frame.Cframe.checkpoint ~cp_seq:3 ~issue_time:1.5 ~stop_go:false
           ~enforced:false ~next_expected:4 ~naks:[| 5; 9 |]);
      data ~seq:8 "";
    ]
  in
  List.iter
    (fun f ->
      let len = Frame.Codec.encode_scratch_into scratch f in
      Alcotest.(check int) "length" (Frame.Wire.size_bytes f) len;
      let buf = Frame.Codec.scratch_buffer scratch in
      (match Frame.Codec.decode ~pos:0 ~len buf with
      | Ok f' -> Alcotest.check wire "scratch pair roundtrip" f f'
      | Error _ -> Alcotest.fail "decode failed");
      let len = Frame.Codec.encode_scratch_into scratch f in
      match
        Frame.Codec.decode ~pos:0 ~len (Frame.Codec.scratch_buffer scratch)
      with
      | Ok f' -> Alcotest.check wire "scratch_into roundtrip" f f'
      | Error _ -> Alcotest.fail "decode failed")
    frames

let test_scratch_encode_steady_state_allocates_nothing () =
  (* the line-rate contract: once the scratch has grown to the working
     frame size, [encode_scratch_into] allocates zero minor words *)
  let scratch = Frame.Codec.create_scratch () in
  let frame =
    data ~seq:42 (String.make 1024 'x')
  in
  ignore (Frame.Codec.encode_scratch_into scratch frame : int);
  ignore (Frame.Codec.encode_scratch_into scratch frame : int);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Frame.Codec.encode_scratch_into scratch frame : int)
  done;
  let per_call = (Gc.minor_words () -. w0) /. 100. in
  if per_call > 0.5 then
    Alcotest.failf "steady-state scratch encode allocates %.1f words/call"
      per_call

let prop_decode_never_raises =
  QCheck2.Test.make ~name:"decode total on arbitrary byte strings" ~count:1000
    QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
    (fun s ->
      match Frame.Codec.decode (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

(* Both 16-bit count fields: 65,535 is the widest value that travels;
   one more is refused at the encoder instead of reaching the wire
   truncated, where it would decode as channel damage. *)
let checkpoint_with_naks n =
  Frame.Wire.Control
    (Frame.Cframe.checkpoint ~cp_seq:1 ~issue_time:0.5 ~stop_go:false
       ~enforced:true ~next_expected:(n + 1)
       ~naks:(Array.init n (fun i -> i)))

let iframe_of_length len =
  Frame.Wire.Data
    (Frame.Iframe.create ~seq:7 ~payload:(Frame.Payload.make ~stem:"big" ~len))

let test_count_fields_at_limit_roundtrip () =
  let cp = checkpoint_with_naks 65_535 in
  Alcotest.check wire "65,535 NAKs" cp (roundtrip cp);
  let i = iframe_of_length 65_535 in
  Alcotest.check wire "65,535-byte payload" i (roundtrip i)

let test_count_fields_over_limit_raise () =
  let raises what frame =
    match encode frame with
    | _ -> Alcotest.failf "%s: encoded" what
    | exception Invalid_argument _ -> ()
  in
  raises "65,536 NAKs" (checkpoint_with_naks 65_536);
  raises "65,536-byte payload" (iframe_of_length 65_536);
  let scratch = Frame.Codec.create_scratch () in
  match Frame.Codec.encode_scratch_into scratch (checkpoint_with_naks 70_000) with
  | _ -> Alcotest.fail "70,000 NAKs: scratch-encoded"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "iframe roundtrip" `Quick test_iframe_roundtrip;
    Alcotest.test_case "iframe empty payload" `Quick test_iframe_empty_payload;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "enforced empty naks" `Quick test_enforced_empty_naks_roundtrip;
    Alcotest.test_case "request-nak roundtrip" `Quick test_request_nak_roundtrip;
    Alcotest.test_case "hdlc roundtrips" `Quick test_hdlc_roundtrips;
    Alcotest.test_case "size matches encoding" `Quick test_size_matches_encoding;
    Alcotest.test_case "payload corruption identified" `Quick test_payload_corruption_identified;
    Alcotest.test_case "header corruption detected" `Quick test_header_corruption_detected;
    Alcotest.test_case "control corruption detected" `Quick test_control_corruption_detected;
    Alcotest.test_case "truncated" `Quick test_truncated;
    Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
    Alcotest.test_case "empty buffer" `Quick test_empty_buffer;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_any_single_flip_detected;
    QCheck_alcotest.to_alcotest prop_flip_never_misidentifies_seq;
    QCheck_alcotest.to_alcotest prop_decode_never_raises;
    Alcotest.test_case "scratch encode roundtrips" `Quick test_scratch_roundtrip;
    Alcotest.test_case "scratch encode steady state is allocation-free" `Quick
      test_scratch_encode_steady_state_allocates_nothing;
    Alcotest.test_case "count fields at 65,535 roundtrip" `Quick
      test_count_fields_at_limit_roundtrip;
    Alcotest.test_case "count fields over 65,535 raise" `Quick
      test_count_fields_over_limit_raise;
  ]
