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

(* A synthetic 1 kB I-frame: offer index 123,456 and 1,024 bytes. *)
let descriptor_frame =
  Frame.Wire.Data
    (Frame.Iframe.create ~seq:3
       ~payload:(Workload.Arrivals.default_payload ~size:1024 123_456))

let test_default_payload () =
  (* the synthetic descriptor: a header, the index and the length *)
  gate ~what:"default_payload ~size:1024" ~max_words:3. (fun () ->
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

(* Steady-state scheduling through the arena and the heap: delays from
   half a microsecond to 80 ms, one pre-allocated callback, float delays
   bound once so none is boxed per call, and every third event cancels
   the one scheduled before it, wherever it sits in the heap. *)
let test_engine_schedule () =
  let e = Sim.Engine.create () in
  let noop () = () in
  let d0 = 5e-7 and d1 = 6.1e-5 and d2 = 9.7e-4 and d3 = 8e-2 in
  let prev = ref Sim.Engine.never in
  gate ~what:"Engine.schedule + cancel + run" ~max_words:0. (fun () ->
      for i = 0 to 99 do
        let d = match i land 3 with 0 -> d0 | 1 -> d1 | 2 -> d2 | _ -> d3 in
        let id = Sim.Engine.schedule e ~delay:d noop in
        if i mod 3 = 0 then ignore (Sim.Engine.cancel e !prev : bool);
        prev := id
      done;
      Sim.Engine.run e)

(* An all-float record stores its fields unboxed, so an observation
   costs nothing. [x] is bound once, so the call boxes nothing either. *)
let test_online_add () =
  let o = Stats.Online.create () in
  let x = 1.5 in
  gate ~what:"Stats.Online.add" ~max_words:0. (fun () -> Stats.Online.add o x)

(* An idle link's whole per-frame path: [send] starts serialising at
   once, without a queue cell, and the engine runs the end of
   serialisation and the arrival. What remains is the [rx] record and
   the floats boxed at calls this build does not inline. *)
let test_link_send_idle () =
  let engine = Sim.Engine.create () in
  let link =
    Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let received = ref 0 in
  Channel.Link.set_receiver link (fun _ -> incr received);
  gate ~what:"idle Link.send up to its arrival" ~max_words:11. (fun () ->
      Channel.Link.send link descriptor_frame;
      Sim.Engine.run engine);
  Alcotest.(check int) "every frame arrived" 1_010 !received

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
    Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
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
   2,000 saturating 1 kB frames at seed 1. The gates are set for the dev
   profile [dune runtest] builds, where [-opaque] stops cross-module
   inlining; the release build perfbench measures allocates less, and
   CI's perfbench-smoke job gates that count. *)
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

(* The six typed emits to a probe nobody listens to: the emitters call
   them unguarded on every frame. *)
let test_probe_idle_emits () =
  let probe = Dlc.Probe.create () in
  let payload = Frame.Payload.of_string "idle" and naks = [ 3; 5 ] in
  gate ~what:"typed Probe emits, no subscriber" ~max_words:0. (fun () ->
      Dlc.Probe.offered probe payload;
      Dlc.Probe.tx probe ~seq:1 ~payload ~retx:false;
      Dlc.Probe.released probe ~seq:1 ~payload;
      Dlc.Probe.requeued probe ~seq:1 ~payload;
      Dlc.Probe.delivered probe ~seq:1 ~payload;
      Dlc.Probe.cp_emitted probe ~cp_seq:1 ~next_expected:2 ~enforced:false
        ~stop_go:false ~naks)

(* The observed session: Scenario.default checked by the oracle with a
   flight recorder attached, as E21-E24 and lams-storm-checked run. *)
let test_checked_words_per_frame ~max_words () =
  let config = Experiments.Scenario.default in
  let protocol =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params config)
  in
  let recorder = Trace.Recorder.create () in
  let w0 = Gc.minor_words () in
  let r, violations =
    Experiments.Scenario.run_checked ~recorder config protocol
  in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "no violation" 0 (List.length violations);
  let per_frame =
    words /. float_of_int r.Experiments.Scenario.metrics.Dlc.Metrics.delivered
  in
  if per_frame > max_words then
    Alcotest.failf
      "Scenario.run_checked ~recorder allocates %.1f words per delivered frame \
       (gate: %g)"
      per_frame max_words

(* One LAMS frame through the sender: offered, put on the wire, carried
   by the link to a receiver that drops it, and released by a
   checkpoint. The buffer slot, the rings and the engine reuse their
   storage. In the release build the loop allocates 12 words: the
   I-frame and its wire box, the departure boxed for the link's
   [distance_m] closure, by the sender and by the link, and the link's
   [rx] record; the checkpoint allocates nothing. The dev profile adds
   the floats boxed at cross-module calls; a sender that allocates per
   buffered frame (a record, its float array and a queue cell) fails the
   gate. *)
let two = Some 2

let test_sender_frame_lifecycle ~max_words () =
  let engine = Sim.Engine.create () in
  let forward =
    Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  Channel.Link.set_receiver forward (fun _ -> ());
  (* a 1 s checkpoint interval keeps the checkpoint timer quiet *)
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1. } in
  let sender =
    Lams_dlc.Sender.create engine ~params ~forward ~metrics:(Dlc.Metrics.create ())
      ~probe:(Dlc.Probe.create ())
  in
  let payload = Frame.Payload.of_string "lifecycle" in
  let warmup = 10 and calls = 1_000 in
  let checkpoints =
    Array.init (warmup + calls) (fun i ->
        {
          Channel.Link.frame =
            Frame.Wire.Control
              (Frame.Cframe.checkpoint ~cp_seq:i ~issue_time:1e9 ~stop_go:false
                 ~enforced:false ~next_expected:(i + 1) ~naks:[]);
          status = Channel.Link.Rx_ok;
        })
  in
  let next = ref 0 in
  gate ~warmup ~calls ~what:"LAMS frame offered, transmitted and released"
    ~max_words (fun () ->
      ignore (Lams_dlc.Sender.offer sender payload : bool);
      (* the end of serialisation and the arrival *)
      Sim.Engine.run ?max_events:two engine;
      Lams_dlc.Sender.on_rx sender checkpoints.(!next);
      incr next);
  Alcotest.(check int) "every frame released" 0 (Lams_dlc.Sender.backlog sender)

(* A NAK-free checkpoint reaching an idle sender, its Stop-Go bit
   alternately set and clear: it restarts the checkpoint timer and
   scales the rate factor down or back up. Neither the timer's expiry
   nor the rate factor is a float field of a mixed record, so neither
   store boxes. *)
let test_checkpoint_stop_go ~max_words () =
  let engine = Sim.Engine.create () in
  let forward =
    Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let sender =
    Lams_dlc.Sender.create engine ~params:Lams_dlc.Params.default ~forward
      ~metrics:(Dlc.Metrics.create ()) ~probe:(Dlc.Probe.create ())
  in
  let warmup = 10 and calls = 1_000 in
  let checkpoints =
    Array.init (warmup + calls) (fun i ->
        {
          Channel.Link.frame =
            Frame.Wire.Control
              (Frame.Cframe.checkpoint ~cp_seq:i ~issue_time:0.
                 ~stop_go:(i land 1 = 0) ~enforced:false ~next_expected:0 ~naks:[]);
          status = Channel.Link.Rx_ok;
        })
  in
  let next = ref 0 in
  gate ~warmup ~calls ~what:"NAK-free checkpoint at the sender" ~max_words
    (fun () ->
      Lams_dlc.Sender.on_rx sender checkpoints.(!next);
      incr next);
  Alcotest.(check bool) "the rate factor moved" true
    (Lams_dlc.Sender.rate_factor sender < 1.);
  Alcotest.(check int) "one timer armed" 1 (Sim.Engine.pending engine)

(* The handover and feedback checks on a probe: Oracle.Transfer in
   convergence mode, its suspect window closed, and Oracle.Feedback. As
   typed listeners they build no event and box no time per emit.
   Transfer counts offers and deliveries in int columns indexed by the
   payload's id, for a synthetic and for a stem payload; the payloads
   are granted a duplicate budget, so their repeated deliveries raise no
   violation. A delivery to Feedback adds its bytes to a goodput bucket;
   once the bucket array has grown past the latest time, that allocates
   nothing either. *)
let test_transfer_feedback_emits () =
  let probe = Dlc.Probe.create () in
  let transfer = Oracle.Transfer.create () in
  Oracle.Transfer.set_convergence transfer ~k:12;
  Oracle.Transfer.observe transfer probe;
  Oracle.Feedback.observe (Oracle.Feedback.create ()) probe;
  let payload = Frame.Payload.of_string "watched" and naks = [ 3; 5 ] in
  let synthetic = Workload.Arrivals.default_payload ~size:1024 7 in
  Oracle.Transfer.mark_suspicious transfer payload;
  Oracle.Transfer.mark_suspicious transfer synthetic;
  gate ~what:"typed Probe emits to Transfer and Feedback" ~max_words:0.
    (fun () ->
      Dlc.Probe.offered probe payload;
      Dlc.Probe.offered probe synthetic;
      Dlc.Probe.tx probe ~seq:1 ~payload ~retx:false;
      Dlc.Probe.delivered probe ~seq:1 ~payload;
      Dlc.Probe.delivered probe ~seq:2 ~payload:synthetic;
      Dlc.Probe.released probe ~seq:1 ~payload;
      Dlc.Probe.requeued probe ~seq:1 ~payload;
      Dlc.Probe.cp_emitted probe ~cp_seq:1 ~next_expected:2 ~enforced:false
        ~stop_go:false ~naks);
  let delivered = Dlc.Probe.create () in
  let feedback = Oracle.Feedback.create () in
  Oracle.Feedback.observe feedback delivered;
  (* 1,000 deliveries 1 ms apart, then the same 1,000 buckets again *)
  let clock = Dlc.Probe.clock delivered and tick = ref 0 in
  gate ~warmup:1_000 ~what:"delivered emit to Feedback" ~max_words:0.
    (fun () ->
      clock.(0) <- (float_of_int (!tick mod 1_000) +. 0.5) *. 1e-3;
      incr tick;
      Dlc.Probe.delivered delivered ~seq:1 ~payload);
  Alcotest.(check int) "no transfer violation" 0
    (Oracle.Transfer.violation_count transfer);
  Alcotest.(check (float 0.))
    "every bucket holds two deliveries"
    (float_of_int (8 * 2 * Frame.Payload.length payload) /. 1e-3)
    (Oracle.Feedback.goodput_floor feedback ~lo:0. ~hi:1.)

(* A seen synthetic payload is hashed and compared as two ints: no
   string read, no allocation. *)
let test_index_seen_synthetic () =
  let index = Frame.Payload.Index.create () in
  let payloads =
    Array.init 4_096 (fun i -> Workload.Arrivals.default_payload ~size:1024 i)
  in
  Array.iter (fun p -> ignore (Frame.Payload.Index.add index p : int)) payloads;
  let next = ref 0 in
  gate ~what:"Payload.Index.add of a seen synthetic payload" ~max_words:0.
    (fun () ->
      ignore (Frame.Payload.Index.add index payloads.(!next land 4_095) : int);
      incr next);
  Alcotest.(check int) "no new id" 4_096 (Frame.Payload.Index.length index)

let suite =
  [
    Alcotest.test_case "default_payload: at most 3 words" `Quick
      test_default_payload;
    Alcotest.test_case "scratch encode of a descriptor frame: 0 words" `Quick
      test_scratch_encode;
    Alcotest.test_case "coded-path status of a descriptor frame: 0 words" `Quick
      test_coded_path_status;
    Alcotest.test_case "engine schedule, cancel and run: 0 words" `Quick
      test_engine_schedule;
    Alcotest.test_case "rng draws: 0 words" `Quick test_rng_draws;
    Alcotest.test_case "LAMS receiver NAK marking: at most 1 word" `Quick
      test_receiver_nak_marking;
    Alcotest.test_case "LAMS session within 61 words per frame" `Quick
      (test_scenario_words_per_frame ~max_words:61. (fun c ->
           Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params c)));
    Alcotest.test_case "SR-HDLC session within 59 words per frame" `Quick
      (test_scenario_words_per_frame ~max_words:59. (fun c ->
           Experiments.Scenario.Hdlc (Experiments.Scenario.default_hdlc_params c)));
    Alcotest.test_case "Stats.Online.add: 0 words" `Quick test_online_add;
    Alcotest.test_case "idle Link.send to arrival: at most 11 words" `Quick
      test_link_send_idle;
    Alcotest.test_case "typed probe emits, no subscriber: 0 words" `Quick
      test_probe_idle_emits;
    Alcotest.test_case "checked LAMS session with a recorder within 66 words per frame"
      `Quick
      (test_checked_words_per_frame ~max_words:66.);
    Alcotest.test_case "LAMS frame offered, sent and released: at most 44 words"
      `Quick
      (test_sender_frame_lifecycle ~max_words:44.);
    Alcotest.test_case "typed probe emits to Transfer and Feedback: 0 words"
      `Quick test_transfer_feedback_emits;
    Alcotest.test_case "NAK-free checkpoint at the sender: 0 words" `Quick
      (test_checkpoint_stop_go ~max_words:0.);
    Alcotest.test_case "Index.add of a seen synthetic payload: 0 words" `Quick
      test_index_seen_synthetic;
  ]
