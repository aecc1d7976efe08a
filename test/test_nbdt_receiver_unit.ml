(* Unit-level NBDT receiver tests: the (frontier, missing) invariant and
   report shape, including the capped-report frontier clamp. *)

type harness = {
  engine : Sim.Engine.t;
  receiver : Nbdt.Receiver.t;
  sent : Frame.Cframe.checkpoint list ref;  (* newest first *)
  delivered : int list ref;
}

let make ?(report_interval = 1e-3) ?(max_report_misses = 512) () =
  let engine = Sim.Engine.create () in
  let reverse =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let sent = ref [] in
  Channel.Link.add_tap reverse (fun ev ->
      match ev with
      | Channel.Link.Tap_tx (Frame.Wire.Control (Frame.Cframe.Checkpoint cp)) ->
          sent := cp :: !sent
      | _ -> ());
  Channel.Link.set_receiver reverse (fun _ -> ());
  let params =
    { Nbdt.Params.default with Nbdt.Params.report_interval; max_report_misses }
  in
  let receiver =
    Nbdt.Receiver.create engine ~params ~reverse ~metrics:(Dlc.Metrics.create ())
      ~probe:(Dlc.Probe.create ())
  in
  let delivered = ref [] in
  Nbdt.Receiver.set_on_deliver receiver (fun ~payload:_ ~seq ->
      delivered := seq :: !delivered);
  { engine; receiver; sent; delivered }

let arrive h ?(status = Channel.Link.Rx_ok) seq =
  Nbdt.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Data
          (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string "unit"));
      status;
    }

let run_for h dt = Sim.Engine.run h.engine ~until:(Sim.Engine.now h.engine +. dt)

let latest h =
  match !(h.sent) with
  | cp :: _ -> cp
  | [] -> Alcotest.fail "no report emitted"

let test_out_of_order_delivery_and_gap_tracking () =
  let h = make () in
  arrive h 0;
  arrive h 3;
  Alcotest.(check (list int)) "delivered as they come" [ 0; 3 ]
    (List.rev !(h.delivered));
  Alcotest.(check int) "frontier" 4 (Nbdt.Receiver.frontier h.receiver);
  Alcotest.(check int) "two missing" 2 (Nbdt.Receiver.missing_count h.receiver);
  run_for h 1.5e-3;
  let cp = latest h in
  Alcotest.(check (list int)) "report lists the gap" [ 1; 2 ] cp.Frame.Cframe.naks;
  Alcotest.(check int) "report frontier" 4 cp.Frame.Cframe.next_expected

let test_retransmission_fills_gap_same_number () =
  let h = make () in
  arrive h 0;
  arrive h 2;
  arrive h 1;
  (* absolute numbering: the retransmission reuses seq 1 *)
  Alcotest.(check int) "no missing left" 0 (Nbdt.Receiver.missing_count h.receiver);
  Alcotest.(check (list int)) "all delivered" [ 0; 2; 1 ] (List.rev !(h.delivered));
  run_for h 1.5e-3;
  Alcotest.(check (list int)) "clean report" [] (latest h).Frame.Cframe.naks

let test_duplicate_dropped () =
  let h = make () in
  arrive h 0;
  arrive h 0;
  Alcotest.(check (list int)) "delivered once" [ 0 ] (List.rev !(h.delivered))

let test_corrupt_stays_missing_until_clean_copy () =
  let h = make () in
  arrive h ~status:Channel.Link.Rx_payload_corrupt 0;
  Alcotest.(check int) "corrupt counted missing" 1
    (Nbdt.Receiver.missing_count h.receiver);
  arrive h ~status:Channel.Link.Rx_payload_corrupt 0;
  Alcotest.(check int) "still missing" 1 (Nbdt.Receiver.missing_count h.receiver);
  arrive h 0;
  Alcotest.(check int) "resolved" 0 (Nbdt.Receiver.missing_count h.receiver);
  Alcotest.(check (list int)) "delivered once" [ 0 ] (List.rev !(h.delivered))

let test_capped_report_clamps_frontier () =
  let h = make ~max_report_misses:3 () in
  arrive h 0;
  arrive h 10;
  (* 9 missing (1..9), cap 3: the report may only list 1,2,3 and must
     clamp its frontier to 4 so the sender cannot release 4..9 *)
  run_for h 1.5e-3;
  let cp = latest h in
  Alcotest.(check (list int)) "first three listed" [ 1; 2; 3 ] cp.Frame.Cframe.naks;
  Alcotest.(check int) "frontier clamped" 4 cp.Frame.Cframe.next_expected

let test_report_cadence_and_stop () =
  let h = make ~report_interval:1e-3 () in
  run_for h 5.5e-3;
  Alcotest.(check int) "five reports" 5 (Nbdt.Receiver.reports_sent h.receiver);
  Nbdt.Receiver.stop h.receiver;
  Sim.Engine.run h.engine;
  Alcotest.(check int) "stopped" 5 (Nbdt.Receiver.reports_sent h.receiver)

let suite =
  [
    Alcotest.test_case "out-of-order + gap tracking" `Quick
      test_out_of_order_delivery_and_gap_tracking;
    Alcotest.test_case "retransmission same number" `Quick
      test_retransmission_fills_gap_same_number;
    Alcotest.test_case "duplicate dropped" `Quick test_duplicate_dropped;
    Alcotest.test_case "corrupt stays missing" `Quick
      test_corrupt_stays_missing_until_clean_copy;
    Alcotest.test_case "capped report clamps frontier" `Quick
      test_capped_report_clamps_frontier;
    Alcotest.test_case "report cadence + stop" `Quick test_report_cadence_and_stop;
  ]
