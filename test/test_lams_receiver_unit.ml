(* Unit-level LAMS-DLC receiver tests: synthetic arrivals in, emitted
   checkpoint commands out. These pin down the NAK state machine (gap
   detection, cumulation window, enforced replay) without a sender in the
   loop. *)

type harness = {
  engine : Sim.Engine.t;
  receiver : Lams_dlc.Receiver.t;
  sent : Frame.Cframe.checkpoint list ref;  (* newest first *)
}

let make ?(w_cp = 1e-3) ?(c_depth = 3) () =
  let engine = Sim.Engine.create () in
  (* reverse link: captures what the receiver emits *)
  let reverse =
    Channel.Link.create_static engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:1000. ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let sent = ref [] in
  Channel.Link.set_tap reverse (fun ev ->
      match ev with
      | Channel.Link.Tap_tx (Frame.Wire.Control (Frame.Cframe.Checkpoint cp)) ->
          sent := cp :: !sent
      | _ -> ());
  Channel.Link.set_receiver reverse (fun _ -> ());
  let params =
    { Lams_dlc.Params.default with Lams_dlc.Params.w_cp; c_depth }
  in
  let receiver =
    Lams_dlc.Receiver.create engine ~params ~reverse
      ~metrics:(Dlc.Metrics.create ()) ~probe:(Dlc.Probe.create ())
  in
  { engine; receiver; sent }

let arrive h ?(status = Channel.Link.Rx_ok) seq =
  Lams_dlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Data
          (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string "unit"));
      status;
      t_sent = Sim.Engine.now h.engine;
    }

let run_for h dt = Sim.Engine.run h.engine ~until:(Sim.Engine.now h.engine +. dt)

let latest_cp h =
  match !(h.sent) with
  | cp :: _ -> cp
  | [] -> Alcotest.fail "no checkpoint emitted"

let test_clean_stream_empty_naks () =
  let h = make () in
  arrive h 0;
  arrive h 1;
  arrive h 2;
  run_for h 1.5e-3;
  let cp = latest_cp h in
  Alcotest.(check (list int)) "no naks" [] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier" 3 cp.Frame.Cframe.next_expected

let test_gap_is_naked () =
  let h = make () in
  arrive h 0;
  arrive h 3;
  (* 1 and 2 skipped *)
  run_for h 1.5e-3;
  let cp = latest_cp h in
  Alcotest.(check (list int)) "gap naks" [ 1; 2 ] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier past the gap" 4 cp.Frame.Cframe.next_expected

let test_payload_corrupt_naked_and_frontier_advances () =
  let h = make () in
  arrive h 0;
  arrive h ~status:Channel.Link.Rx_payload_corrupt 1;
  arrive h 2;
  run_for h 1.5e-3;
  let cp = latest_cp h in
  Alcotest.(check (list int)) "corrupt frame naked" [ 1 ] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier includes it" 3 cp.Frame.Cframe.next_expected

let test_header_corrupt_invisible_until_gap () =
  let h = make () in
  arrive h 0;
  arrive h ~status:Channel.Link.Rx_header_corrupt 1;
  run_for h 1.5e-3;
  (* the unidentifiable arrival alone reveals nothing *)
  Alcotest.(check (list int)) "nothing to nak yet" []
    (latest_cp h).Frame.Cframe.naks;
  (* a later identifiable frame reveals the hole *)
  arrive h 2;
  run_for h 1e-3;
  Alcotest.(check (list int)) "gap detected now" [ 1 ]
    (latest_cp h).Frame.Cframe.naks

let test_cumulation_depth_exactly_c_checkpoints () =
  let h = make ~c_depth:3 () in
  arrive h 0;
  arrive h 2;
  (* seq 1 missing: it must appear in exactly 3 consecutive checkpoints *)
  run_for h 4.5e-3;
  (* >= 4 checkpoints have fired by now *)
  let with_nak =
    List.filter (fun cp -> List.mem 1 cp.Frame.Cframe.naks) !(h.sent)
  in
  Alcotest.(check int) "reported exactly c_depth times" 3 (List.length with_nak)

let test_enforced_nak_replays_old_errors () =
  let h = make ~c_depth:2 () in
  arrive h 0;
  arrive h 5;
  (* errors 1-4 recorded *)
  run_for h 10e-3;
  (* far beyond the cumulation window: regular checkpoints no longer
     carry them *)
  Alcotest.(check (list int)) "window expired" [] (latest_cp h).Frame.Cframe.naks;
  (* a Request-NAK forces the complete log back out *)
  Lams_dlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:0.);
      status = Channel.Link.Rx_ok;
      t_sent = 0.;
    };
  run_for h 1e-4;
  (* a regular checkpoint may interleave; find the enforced answer *)
  match List.find_opt (fun cp -> cp.Frame.Cframe.enforced) !(h.sent) with
  | None -> Alcotest.fail "no enforced checkpoint emitted"
  | Some cp ->
      Alcotest.(check (list int)) "full log replayed" [ 1; 2; 3; 4 ]
        cp.Frame.Cframe.naks

let test_duplicate_arrival_counted () =
  let h = make () in
  arrive h 0;
  arrive h 1;
  arrive h 0;
  (* impossible on a FIFO link; receiver tolerates and counts it *)
  Alcotest.(check int) "frontier unchanged" 2
    (Lams_dlc.Receiver.next_expected h.receiver);
  run_for h 1.5e-3;
  Alcotest.(check (list int)) "no naks" [] (latest_cp h).Frame.Cframe.naks

let test_checkpoint_cadence () =
  let h = make ~w_cp:1e-3 () in
  run_for h 10.5e-3;
  Alcotest.(check int) "one checkpoint per interval" 10
    (Lams_dlc.Receiver.checkpoints_sent h.receiver);
  Lams_dlc.Receiver.stop h.receiver;
  Sim.Engine.run h.engine;
  Alcotest.(check int) "stop halts the schedule" 10
    (Lams_dlc.Receiver.checkpoints_sent h.receiver)

let suite =
  [
    Alcotest.test_case "clean stream: empty naks" `Quick test_clean_stream_empty_naks;
    Alcotest.test_case "gap is NAKed" `Quick test_gap_is_naked;
    Alcotest.test_case "payload corrupt NAKed" `Quick
      test_payload_corrupt_naked_and_frontier_advances;
    Alcotest.test_case "header corrupt via gap" `Quick
      test_header_corrupt_invisible_until_gap;
    Alcotest.test_case "cumulation = c_depth reports" `Quick
      test_cumulation_depth_exactly_c_checkpoints;
    Alcotest.test_case "enforced replays full log" `Quick
      test_enforced_nak_replays_old_errors;
    Alcotest.test_case "duplicate arrival tolerated" `Quick
      test_duplicate_arrival_counted;
    Alcotest.test_case "checkpoint cadence" `Quick test_checkpoint_cadence;
  ]
