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

let gate ?warmup ?calls ~what ~max_words f =
  let w = words_per_call ?warmup ?calls f in
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

(* Steady-state scheduling through the arena and timer wheel: delays
   spanning the near heap, the wheel buckets and the overflow heap (80 ms
   is past the wheel horizon), one pre-allocated callback, float delays
   bound once so none is boxed per call. *)
let test_engine_schedule () =
  let e = Sim.Engine.create () in
  let noop _ = () in
  let d0 = 5e-7 and d1 = 6.1e-5 and d2 = 9.7e-4 and d3 = 8e-2 in
  gate ~what:"Engine.schedule_fn (three tiers) + run" ~max_words:0. (fun () ->
      for i = 0 to 99 do
        let d = match i land 3 with 0 -> d0 | 1 -> d1 | 2 -> d2 | _ -> d3 in
        ignore
          (Sim.Engine.schedule_fn e ~delay:d ~fn:noop ~arg:i : Sim.Engine.event_id)
      done;
      Sim.Engine.run e)

let test_rng_draws () =
  let rng = Sim.Rng.create ~seed:1 in
  gate ~what:"Rng.int" ~max_words:0. (fun () ->
      ignore (Sim.Rng.int rng 1_000_000 : int))

(* The NAK-marking path: in-order I-frames whose payload failed its CRC,
   each an append to the current interval and to the error log. The
   arrivals are built up front, and the calls cover the ledger's growth
   from empty, amortised. *)
let test_receiver_nak_marking () =
  let engine = Sim.Engine.create () in
  let reverse =
    Channel.Link.create_static engine ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:1000. ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let receiver =
    Lams_dlc.Receiver.create engine ~params:Lams_dlc.Params.default ~reverse
      ~metrics:(Dlc.Metrics.create ()) ~probe:(Dlc.Probe.create ())
  in
  let warmup = 10 and calls = 100_000 in
  let payload = Frame.Payload.of_string "corrupt" in
  let arrivals =
    Array.init (warmup + calls) (fun seq ->
        {
          Channel.Link.frame = Frame.Wire.Data (Frame.Iframe.create ~seq ~payload);
          status = Channel.Link.Rx_payload_corrupt;
          t_sent = 0.;
        })
  in
  let next = ref 0 in
  gate ~warmup ~calls ~what:"Receiver.on_rx (payload corrupt)" ~max_words:1.
    (fun () ->
      Lams_dlc.Receiver.on_rx receiver arrivals.(!next);
      incr next);
  Alcotest.(check int) "every frame NAKed" (warmup + calls)
    (List.length (Lams_dlc.Receiver.outstanding_naks receiver))

(* A whole session at the paper's operating point: Scenario.default is
   2,000 saturating 1 kB frames at seed 1. *)
let test_scenario_words_per_frame ~max_words protocol () =
  let config = Experiments.Scenario.default in
  let w0 = Gc.minor_words () in
  let r = Experiments.Scenario.run config (protocol config) in
  let words = Gc.minor_words () -. w0 in
  let delivered = r.Experiments.Scenario.metrics.Dlc.Metrics.delivered in
  Alcotest.(check bool) "completed" true r.Experiments.Scenario.completed;
  let per_frame = words /. float_of_int delivered in
  if per_frame > max_words then
    Alcotest.failf
      "Scenario.run allocates %.1f words per delivered frame (gate: %g)" per_frame
      max_words

let suite =
  [
    Alcotest.test_case "default_payload: at most 8 words" `Quick
      test_default_payload;
    Alcotest.test_case "scratch encode of a descriptor frame: 0 words" `Quick
      test_scratch_encode;
    Alcotest.test_case "coded-path status of a descriptor frame: 0 words" `Quick
      test_coded_path_status;
    Alcotest.test_case "engine schedule, three tiers: 0 words" `Quick
      test_engine_schedule;
    Alcotest.test_case "rng draws: 0 words" `Quick test_rng_draws;
    Alcotest.test_case "LAMS receiver NAK marking: at most 1 word" `Quick
      test_receiver_nak_marking;
    Alcotest.test_case "LAMS session: at most 120 words per frame" `Quick
      (test_scenario_words_per_frame ~max_words:120. (fun c ->
           Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params c)));
    Alcotest.test_case "SR-HDLC session: at most 140 words per frame" `Quick
      (test_scenario_words_per_frame ~max_words:140. (fun c ->
           Experiments.Scenario.Hdlc (Experiments.Scenario.default_hdlc_params c)));
  ]
