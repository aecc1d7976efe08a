(* Allocation gates: minor words per call on steady-state per-frame
   paths. Gc.minor_words reads the allocation pointer, so the counts
   are exact; a warm-up lets scratch buffers reach their working size
   first. *)

let words_per_call ?(warmup = 10) ?(calls = 1_000) f =
  for _ = 1 to warmup do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let gate ~what ~max_words f =
  let w = words_per_call f in
  if w > max_words then
    Alcotest.failf "%s allocates %.2f words/call (gate: %g)" what w max_words

(* A synthetic 1 kB I-frame: an 11-byte stem and 1,013 bytes of fill. *)
let descriptor_frame =
  Frame.Wire.Data
    (Frame.Iframe.create ~seq:3
       ~payload:(Workload.Arrivals.default_payload ~size:1024 123_456))

let test_default_payload () =
  (* the stem string (3 words) and the descriptor (3 words) *)
  gate ~what:"default_payload ~size:1024" ~max_words:8. (fun () ->
      ignore
        (Sys.opaque_identity (Workload.Arrivals.default_payload ~size:1024 123_456)
          : Frame.Payload.t))

let test_scratch_encode () =
  let scratch = Frame.Codec.create_scratch () in
  gate ~what:"Codec.encode_scratch_into" ~max_words:0. (fun () ->
      ignore (Frame.Codec.encode_scratch_into scratch descriptor_frame : int))

let test_coded_path_status () =
  let path =
    Channel.Coded_path.create ~rng:(Sim.Rng.create ~seed:11)
      ~iframe_code:Fec.Code.identity ~cframe_code:Fec.Code.identity
      ~error_model:(Channel.Error_model.uniform ~ber:1e-4 ())
  in
  gate ~what:"Coded_path.transmit_status" ~max_words:0. (fun () ->
      ignore
        (Channel.Coded_path.transmit_status path descriptor_frame
          : Channel.Link.status))

let suite =
  [
    Alcotest.test_case "default_payload: at most 8 words" `Quick
      test_default_payload;
    Alcotest.test_case "scratch encode of a descriptor frame: 0 words" `Quick
      test_scratch_encode;
    Alcotest.test_case "coded-path status of a descriptor frame: 0 words" `Quick
      test_coded_path_status;
  ]
