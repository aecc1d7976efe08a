(* Channel.Model backend tests: trace file format, deterministic replay,
   Gilbert-Elliott calibration, the batched-vs-sequential differential
   property, the asymmetric duplex combinator, and the golden replayed
   DLC session. *)

module M = Channel.Model
module TM = Channel.Trace_model
module EM = Channel.Error_model

let fate = Alcotest.testable (Fmt.of_to_string (fun f -> String.make 1 (TM.fate_token f))) ( = )

(* --- trace file format -------------------------------------------------- *)

let gen_fate =
  QCheck2.Gen.oneofl
    [ M.Clean; M.Corrupt { header = true }; M.Corrupt { header = false }; M.Lost ]

let prop_trace_roundtrip =
  QCheck2.Test.make ~name:"trace print/parse round-trip" ~count:100
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 400) gen_fate)
        (option (string_size ~gen:(char_range 'a' 'z') (int_range 0 30))))
    (fun (data, comment) ->
      let text = TM.to_string ?comment data in
      TM.parse text = data)

let test_parse_pins () =
  (* version mismatch *)
  Alcotest.check_raises "version rejected"
    (TM.Parse_error
       "channel trace: unsupported version \"v2\" (this reader understands v1)")
    (fun () -> ignore (TM.parse "lams-dlc-channel-trace v2 frames=2\n..\n"));
  (* truncation: header promises more frames than the body holds *)
  Alcotest.check_raises "truncation rejected"
    (TM.Parse_error
       "channel trace: header promises 5 frames but body has 4 (truncated or \
        trailing data)")
    (fun () -> ignore (TM.parse "lams-dlc-channel-trace v1 frames=5\n.ph.\n"));
  (* trailing garbage is the same count check in the other direction *)
  Alcotest.check_raises "trailing tokens rejected"
    (TM.Parse_error
       "channel trace: header promises 2 frames but body has 4 (truncated or \
        trailing data)")
    (fun () -> ignore (TM.parse "lams-dlc-channel-trace v1 frames=2\n.ph.\n"));
  Alcotest.check_raises "bad magic rejected"
    (TM.Parse_error
       "channel trace: bad magic \"something-else\" (expected \
        \"lams-dlc-channel-trace\")")
    (fun () -> ignore (TM.parse "something-else v1 frames=0\n"));
  Alcotest.check_raises "unknown token rejected"
    (TM.Parse_error "channel trace: unknown fate token 'x'")
    (fun () -> ignore (TM.parse "lams-dlc-channel-trace v1 frames=1\nx\n"))

let test_parse_comments_and_whitespace () =
  let text =
    "# recorded somewhere\n\n# another comment\n\
     lams-dlc-channel-trace v1 frames=6\n\
     .p h\t.\n# mid-stream comment\nL. # trailing comment\n"
  in
  Alcotest.(check (array fate))
    "comments and whitespace ignored"
    [|
      M.Clean;
      M.Corrupt { header = false };
      M.Corrupt { header = true };
      M.Clean;
      M.Lost;
      M.Clean;
    |]
    (TM.parse text)

let test_error_rate () =
  Alcotest.(check (float 1e-9)) "empty" 0. (TM.error_rate [||]);
  Alcotest.(check (float 1e-9))
    "half" 0.5
    (TM.error_rate [| M.Clean; M.Lost; M.Clean; M.Corrupt { header = true } |])

(* --- replay ------------------------------------------------------------- *)

let sample = [| M.Clean; M.Corrupt { header = false }; M.Lost; M.Corrupt { header = true } |]

let draw model rng n =
  Array.init n (fun _ -> M.fate model rng ~header_bits:104 ~payload_bits:8192)

let test_replay_loops () =
  let rng = Sim.Rng.create ~seed:1 in
  Alcotest.(check (array fate))
    "the trace is periodic"
    (Array.append sample sample)
    (draw (TM.replay sample) rng 8)

let test_replay_offset () =
  let rng = Sim.Rng.create ~seed:2 in
  let m = TM.replay ~offset:2 sample in
  Alcotest.(check fate) "starts mid-trace" M.Lost
    (M.fate m rng ~header_bits:1 ~payload_bits:1);
  (* offsets reduce modulo the trace length: any int is a valid window *)
  let m6 = TM.replay ~offset:6 sample and m2 = TM.replay ~offset:2 sample in
  Alcotest.(check (array fate)) "offset wraps" (draw m2 rng 8) (draw m6 rng 8)

let test_replay_consumes_no_randomness () =
  let a = Sim.Rng.create ~seed:3 and b = Sim.Rng.create ~seed:3 in
  let m = TM.replay sample in
  ignore (draw m a 16);
  M.advance m a ~bits:100_000;
  Alcotest.(check (float 0.)) "rng stream untouched by replay"
    (Sim.Rng.float b 1.) (Sim.Rng.float a 1.)

let test_replay_copy_independent () =
  let rng = Sim.Rng.create ~seed:4 in
  let m = TM.replay sample in
  ignore (draw m rng 2);
  let c = M.copy m in
  Alcotest.(check (array fate)) "copy resumes at the cursor" (draw m rng 4)
    (draw c rng 4)

let test_replay_batch_matches_sequential () =
  let rng = Sim.Rng.create ~seed:5 in
  let seq = TM.replay sample and batch = TM.replay sample in
  let n = 11 in
  let expected = draw seq rng n in
  let got = Array.make n M.Clean in
  M.fates_into batch rng ~header_bits:104 ~payload_bits:8192 got ~n;
  Alcotest.(check (array fate)) "batch deals the same fates" expected got

let test_replay_error_positions_and_fer () =
  let rng = Sim.Rng.create ~seed:6 in
  let m = TM.replay sample in
  Alcotest.(check (list int)) "clean frame flips nothing" []
    (Test_channel.error_positions m rng ~bits:1000);
  Alcotest.(check bool) "corrupt frame flips a dense burst" true
    (List.length (Test_channel.error_positions m rng ~bits:1000) > 0);
  Alcotest.(check (float 1e-9)) "frame_error_prob is the empirical rate" 0.75
    (M.frame_error_prob m ~bits:8296)

let test_replay_empty_rejected () =
  Alcotest.check_raises "empty trace"
    (Invalid_argument "Trace_model.replay: empty trace") (fun () ->
      ignore (TM.replay [||]))

(* --- batched fates: n = 0 and nonuniform spans -------------------------- *)

let test_fates_into_n_zero_consumes_nothing () =
  let models =
    [
      ("perfect", EM.perfect);
      ("uniform", EM.uniform ~ber:1e-4 ());
      ( "ge",
        EM.gilbert_elliott ~ber_good:1e-6 ~ber_bad:0.5 ~mean_burst_bits:1000.
          ~mean_gap_bits:9000. () );
      ("replay", TM.replay sample);
    ]
  in
  List.iter
    (fun (name, model) ->
      let rng = Sim.Rng.create ~seed:7 and fresh = Sim.Rng.create ~seed:7 in
      let dst = Array.make 4 M.Lost in
      M.fates_into model rng ~header_bits:104 ~payload_bits:8192 dst ~n:0;
      Alcotest.(check (array fate))
        (name ^ ": dst untouched")
        [| M.Lost; M.Lost; M.Lost; M.Lost |]
        dst;
      Alcotest.(check (float 0.))
        (name ^ ": rng untouched")
        (Sim.Rng.float fresh 1.) (Sim.Rng.float rng 1.))
    models

let test_ge_batch_mixed_spans () =
  (* all-header spans can only corrupt headers; all-payload spans can
     only corrupt payloads — whatever the chain state does *)
  let mk () =
    EM.gilbert_elliott ~ber_good:1e-4 ~ber_bad:0.3 ~mean_burst_bits:5_000.
      ~mean_gap_bits:5_000. ()
  in
  let rng = Sim.Rng.create ~seed:8 in
  let n = 2_000 in
  let dst = Array.make n M.Clean in
  M.fates_into (mk ()) rng ~header_bits:512 ~payload_bits:0 dst ~n;
  let saw_header = ref false in
  Array.iter
    (fun f ->
      match f with
      | M.Corrupt { header = false } ->
          Alcotest.fail "payload corruption from a 0-bit payload"
      | M.Corrupt { header = true } -> saw_header := true
      | M.Clean | M.Lost -> ())
    dst;
  Alcotest.(check bool) "header-only span did corrupt" true !saw_header;
  M.fates_into (mk ()) rng ~header_bits:0 ~payload_bits:512 dst ~n;
  let saw_payload = ref false in
  Array.iter
    (fun f ->
      match f with
      | M.Corrupt { header = true } ->
          Alcotest.fail "header corruption from a 0-bit header"
      | M.Corrupt { header = false } -> saw_payload := true
      | M.Clean | M.Lost -> ())
    dst;
  Alcotest.(check bool) "payload-only span did corrupt" true !saw_payload

(* The batched GE path draws a different stream than sequential fate
   calls but must agree in distribution across the parameter space, not
   just at one pinned operating point. Each run spans [cycles] expected
   burst cycles: bursts of b frames and gaps of g = 10 b frames, so
   n = 11 b cycles frames. Its bad-frame fraction is a renewal-reward
   average whose variance comes from the burst count and the burst and
   gap lengths (geometric, sd = mean): ((1 - r)^2 b^2 + r^2 g^2) /
   ((b + g) n) with r = b / (b + g), which is 200 / (1331 * 11 * cycles)
   for every b. Two independent runs may differ by 6 sd of their
   difference (0.081 at 150 cycles). Over 100,000 draws of this
   generator the standardized difference had sd 1.04 and a largest
   value of 4.8; a normal tail beyond 6 puts the false-failure rate near
   1e-8 per draw, about 2e-7 per 15-draw run. *)
let prop_ge_batch_vs_sequential =
  QCheck2.Test.make
    ~name:"GE fates_into distribution-compatible with sequential fate" ~count:15
    ~print:QCheck2.Print.(triple int float int)
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (float_range 0.01 0.5) (int_range 2 40))
    (fun (seed, ber_bad, burst_frames) ->
      let frame_bits = 1000. and cycles = 150 in
      let mk () =
        EM.gilbert_elliott ~ber_good:0. ~ber_bad
          ~mean_burst_bits:(float_of_int burst_frames *. frame_bits)
          ~mean_gap_bits:(10. *. float_of_int burst_frames *. frame_bits)
          ()
      in
      let n = 11 * burst_frames * cycles in
      let bad arr =
        Array.fold_left (fun a f -> if f = M.Clean then a else a + 1) 0 arr
      in
      let r1 = Sim.Rng.create ~seed in
      let seq = mk () in
      let seq_fates =
        Array.init n (fun _ -> M.fate seq r1 ~header_bits:100 ~payload_bits:900)
      in
      let r2 = Sim.Rng.create ~seed:(seed + 1) in
      let batch = mk () in
      let batch_fates = Array.make n M.Clean in
      M.fates_into batch r2 ~header_bits:100 ~payload_bits:900 batch_fates ~n;
      let p_seq = float_of_int (bad seq_fates) /. float_of_int n in
      let p_batch = float_of_int (bad batch_fates) /. float_of_int n in
      let sd_diff = sqrt (2. *. 200. /. (1331. *. 11. *. float_of_int cycles)) in
      Float.abs (p_seq -. p_batch) <= 6. *. sd_diff)

(* --- calibration -------------------------------------------------------- *)

let test_calibration_roundtrip () =
  (* known GE -> long trace -> fit: sojourn means and the bad-state BER
     must come back within moment-matching tolerance (seed-pinned) *)
  let frame_bits = 1000 in
  let ber_bad = 0.0023 (* in-burst frame-error density ~0.9 *) in
  let mean_burst_bits = 20_000. and mean_gap_bits = 200_000. in
  let model =
    EM.gilbert_elliott ~ber_good:0. ~ber_bad ~mean_burst_bits ~mean_gap_bits ()
  in
  let rng = Sim.Rng.create ~seed:42 in
  let n = 30_000 in
  let trace = M.fates model rng ~header_bits:100 ~payload_bits:900 ~n in
  match Channel.Calibrate.fit ~frame_bits trace with
  | Error e -> Alcotest.failf "fit refused a healthy trace: %s" e
  | Ok f ->
      let within ~tol ~want got name =
        if Float.abs (got -. want) > tol *. want then
          Alcotest.failf "%s: recovered %g, want %g +/- %g%%" name got want
            (100. *. tol)
      in
      within ~tol:0.35 ~want:mean_burst_bits f.Channel.Calibrate.mean_burst_bits
        "mean_burst_bits";
      within ~tol:0.35 ~want:mean_gap_bits f.Channel.Calibrate.mean_gap_bits
        "mean_gap_bits";
      within ~tol:1.0 ~want:ber_bad f.Channel.Calibrate.ber_bad "ber_bad";
      Alcotest.(check (float 1e-9)) "ber_good pinned to 0" 0.
        f.Channel.Calibrate.ber_good;
      if Channel.Calibrate.residual f > 0.5 then
        Alcotest.failf "fit residual too large: %g"
          (Channel.Calibrate.residual f)

let expect_degenerate name trace expect_substring =
  match Channel.Calibrate.fit ~frame_bits:1000 trace with
  | Ok f ->
      Alcotest.failf "%s: expected a diagnostic, got a fit (residual %g)" name
        (Channel.Calibrate.residual f)
  | Error e ->
      let has_sub s sub =
        Astring.String.find_sub ~sub s |> Option.is_some
      in
      if not (has_sub e expect_substring) then
        Alcotest.failf "%s: diagnostic %S does not mention %S" name e
          expect_substring

let test_calibration_degenerate () =
  expect_degenerate "empty" [||] "empty";
  expect_degenerate "all-clean" (Array.make 500 M.Clean) "all-clean";
  expect_degenerate "all-bad" (Array.make 500 M.Lost) "all-bad";
  let single_burst =
    Array.concat
      [
        Array.make 50 M.Clean;
        Array.make 5 (M.Corrupt { header = false });
        Array.make 50 M.Clean;
      ]
  in
  expect_degenerate "single burst" single_burst "burst"

(* --- asymmetric duplex -------------------------------------------------- *)

let iframe ~seq ~bytes =
  let payload = Frame.Payload.of_string (String.make bytes 'p') in
  Frame.Wire.Data (Frame.Iframe.create ~seq ~payload)

(* --- golden replayed session -------------------------------------------- *)

(* regenerated from the golden registry: a LAMS-DLC session replaying
   channel-trace-golden.trace at seed 850 (inside the eclipse's errored
   region), which must stay invariant-clean and complete *)
let test_golden_replay () =
  ignore (Test_golden.check_entry "channel-replay-golden.jsonl")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_trace_roundtrip;
    Alcotest.test_case "parse rejection pins" `Quick test_parse_pins;
    Alcotest.test_case "parse comments/whitespace" `Quick
      test_parse_comments_and_whitespace;
    Alcotest.test_case "error rate" `Quick test_error_rate;
    Alcotest.test_case "replay loops" `Quick test_replay_loops;
    Alcotest.test_case "replay offset windows" `Quick test_replay_offset;
    Alcotest.test_case "replay consumes no randomness" `Quick
      test_replay_consumes_no_randomness;
    Alcotest.test_case "replay copy independence" `Quick
      test_replay_copy_independent;
    Alcotest.test_case "replay batch = sequential" `Quick
      test_replay_batch_matches_sequential;
    Alcotest.test_case "replay error positions + fer" `Quick
      test_replay_error_positions_and_fer;
    Alcotest.test_case "replay rejects empty trace" `Quick
      test_replay_empty_rejected;
    Alcotest.test_case "fates_into n=0 consumes nothing" `Quick
      test_fates_into_n_zero_consumes_nothing;
    Alcotest.test_case "GE batch on nonuniform spans" `Quick
      test_ge_batch_mixed_spans;
    QCheck_alcotest.to_alcotest prop_ge_batch_vs_sequential;
    Alcotest.test_case "calibration round-trip" `Slow
      test_calibration_roundtrip;
    Alcotest.test_case "calibration degenerate traces" `Quick
      test_calibration_degenerate;
    Alcotest.test_case "golden replayed session" `Quick test_golden_replay;
  ]
