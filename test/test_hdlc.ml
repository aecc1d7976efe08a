(* HDLC baseline tests: window discipline, in-order delivery, SREJ/REJ
   recovery, timeout recovery, duplicates, failure declaration. *)

let sr = Hdlc.Params.default

let gbn = { Hdlc.Params.default with Hdlc.Params.mode = Hdlc.Params.Go_back_n }

let test_params_validation () =
  (match Hdlc.Params.validate sr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "default invalid: %s" e);
  (match
     Hdlc.Params.validate { sr with Hdlc.Params.window = 65; seq_bits = 7 }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SR window > M/2 accepted");
  (match
     Hdlc.Params.validate
       { gbn with Hdlc.Params.window = 127; seq_bits = 7 }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "GBN window M-1 rejected: %s" e);
  (match Hdlc.Params.validate { sr with Hdlc.Params.seq_bits = 17 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "seq_bits = 17 accepted");
  (match Hdlc.Params.validate { sr with Hdlc.Params.seq_bits = 16 } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seq_bits = 16 rejected: %s" e);
  (match Hdlc.Params.validate { sr with Hdlc.Params.t_out = 0. } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "t_out = 0 accepted");
  match Hdlc.Params.validate { sr with Hdlc.Params.t_out = nan } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "t_out = nan accepted"

let test_clean_link_in_order () =
  let t, _session = Proto_harness.hdlc ~params:sr () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 300;
  Proto_harness.in_order t

let test_sr_lossy_in_order_zero_loss () =
  let t, _session = Proto_harness.hdlc ~ber:1e-4 ~params:sr () in
  Proto_harness.offer_all t 400;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 400;
  Proto_harness.in_order t

let test_gbn_lossy_in_order_zero_loss () =
  let t, _session = Proto_harness.hdlc ~ber:1e-4 ~params:gbn () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 300;
  Proto_harness.in_order t

let test_clean_no_retransmissions () =
  let t, _session = Proto_harness.hdlc ~params:sr () in
  Proto_harness.offer_all t 200;
  Proto_harness.run_to_completion t;
  Alcotest.(check int) "no retx" 0
    t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.retransmissions

let test_gbn_retransmits_more_than_sr () =
  let run params =
    let t, _session = Proto_harness.hdlc ~ber:1e-4 ~seed:3 ~params () in
    Proto_harness.offer_all t 400;
    Proto_harness.run_to_completion t;
    t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.retransmissions
  in
  let sr_retx = run sr and gbn_retx = run gbn in
  if gbn_retx <= sr_retx then
    Alcotest.failf "GBN (%d) should retransmit more than SR (%d)" gbn_retx sr_retx

let test_window_respected () =
  (* long link, clean: sender must stall at exactly W unacknowledged *)
  let params = { sr with Hdlc.Params.window = 8 } in
  let engine = Sim.Engine.create () in
  let duplex = Proto_harness.make_duplex ~distance:10_000_000. engine in
  let session = Hdlc.Session.create engine ~params ~duplex in
  let dlc = Hdlc.Session.as_dlc session in
  for i = 0 to 99 do
    ignore (dlc.Dlc.Session.offer (Proto_harness.payload i) : bool)
  done;
  (* run long enough to fill the window but shorter than one RTT *)
  Sim.Engine.run engine ~until:0.01;
  let sender = Hdlc.Session.sender session in
  Alcotest.(check int) "window full" 8 (Hdlc.Sender.in_window sender);
  Alcotest.(check bool) "stalled" true (Hdlc.Sender.window_stalled sender);
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine

let test_recovers_from_total_control_loss_via_timeout () =
  (* all supervisory frames corrupted for a while: timeout recovery must
     still complete the transfer once the control channel heals *)
  let t, _session = Proto_harness.hdlc ~ber:0. ~cber:0. ~params:sr () in
  (* kill the reverse direction for 50 ms *)
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.001 (fun () ->
         Channel.Link.set_down t.Proto_harness.duplex.Channel.Duplex.reverse));
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.051 (fun () ->
         Channel.Link.set_up t.Proto_harness.duplex.Channel.Duplex.reverse));
  Proto_harness.offer_all t 100;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 100

let test_duplicate_arrivals_counted_not_delivered () =
  (* lost RRs make the sender retransmit already-delivered frames; they
     must be dropped (counted), never re-delivered *)
  let t, _session = Proto_harness.hdlc ~ber:1e-5 ~cber:3e-3 ~seed:7 ~params:sr () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t ~horizon:120.;
  Proto_harness.delivered_exactly_once t 300;
  Proto_harness.in_order t

let test_failure_after_n2 () =
  let params = { sr with Hdlc.Params.t_out = 5e-3 } in
  let t, _session = Proto_harness.hdlc ~params () in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.001 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex));
  Proto_harness.offer_all t 50;
  Proto_harness.run_to_completion t ~horizon:5.;
  Alcotest.(check int) "failed after N2" 1
    t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.failures_detected;
  Alcotest.(check bool) "offers refused" false
    (t.Proto_harness.dlc.Dlc.Session.offer (Frame.Payload.of_string "x"))

let test_recv_buffer_used_in_sr () =
  (* SR must buffer out-of-order frames; the receiving-buffer peak is the
     in-sequence cost the paper talks about *)
  let t, _session = Proto_harness.hdlc ~ber:3e-4 ~seed:5 ~params:sr () in
  Proto_harness.offer_all t 400;
  Proto_harness.run_to_completion t;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  Alcotest.(check bool) "receiver buffered frames" true (m.Dlc.Metrics.recv_buffer_peak > 0)

let test_gbn_never_buffers () =
  let t, _session = Proto_harness.hdlc ~ber:3e-4 ~seed:5 ~params:gbn () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  Alcotest.(check int) "GBN holds nothing" 0 m.Dlc.Metrics.recv_buffer_peak

let test_stutter_in_order_zero_loss () =
  List.iter
    (fun mode ->
      let params = { sr with Hdlc.Params.mode; stutter = true } in
      let t, _session = Proto_harness.hdlc ~ber:1e-4 ~seed:13 ~params () in
      Proto_harness.offer_all t 300;
      Proto_harness.run_to_completion t;
      Proto_harness.delivered_exactly_once t 300;
      Proto_harness.in_order t)
    [ Hdlc.Params.Selective_repeat; Hdlc.Params.Go_back_n ]

let test_stutter_fills_idle_time () =
  (* on a long clean link the stuttering sender re-sends during the
     window stall; the plain sender does not *)
  let run stutter =
    (* t_out must exceed the 10,000 km RTT (67 ms) or plain SR suffers
       spurious timeout retransmissions *)
    let params = { sr with Hdlc.Params.stutter; t_out = 0.15 } in
    let t, _session = Proto_harness.hdlc ~distance:10_000_000. ~params () in
    Proto_harness.offer_all t 200;
    Proto_harness.run_to_completion t;
    t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.retransmissions
  in
  Alcotest.(check int) "plain SR idles" 0 (run false);
  Alcotest.(check bool) "stutter re-sends during stalls" true (run true > 0)

let test_stutter_faster_on_lossy_long_link () =
  let run stutter =
    let params = { sr with Hdlc.Params.stutter } in
    let t, _session =
      Proto_harness.hdlc ~ber:1e-4 ~seed:21 ~distance:10_000_000. ~params ()
    in
    Proto_harness.offer_all t 300;
    Proto_harness.run_to_completion t;
    Dlc.Metrics.elapsed t.Proto_harness.dlc.Dlc.Session.metrics
  in
  let plain = run false and stuttering = run true in
  if not (stuttering < plain) then
    Alcotest.failf "stutter (%.4f s) should beat plain SR (%.4f s)" stuttering plain

let prop_in_order_zero_loss_across_seeds =
  QCheck2.Test.make ~name:"hdlc delivers in order, no loss, for any seed"
    ~count:15
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 20) bool)
    (fun (seed, ber_scale, use_gbn) ->
      let params = if use_gbn then gbn else sr in
      let ber = float_of_int ber_scale *. 1e-5 in
      let t, _session = Proto_harness.hdlc ~seed ~ber ~params () in
      Proto_harness.offer_all t 100;
      Proto_harness.run_to_completion t ~horizon:120.;
      let order = List.rev t.Proto_harness.delivery_order in
      List.length order = 100
      && List.mapi (fun i p -> p = Proto_harness.payload i) order
         |> List.for_all Fun.id)

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "clean link in order" `Quick test_clean_link_in_order;
    Alcotest.test_case "SR lossy: in order, zero loss" `Quick
      test_sr_lossy_in_order_zero_loss;
    Alcotest.test_case "GBN lossy: in order, zero loss" `Quick
      test_gbn_lossy_in_order_zero_loss;
    Alcotest.test_case "clean: no retransmissions" `Quick test_clean_no_retransmissions;
    Alcotest.test_case "GBN retransmits more than SR" `Quick
      test_gbn_retransmits_more_than_sr;
    Alcotest.test_case "window respected" `Quick test_window_respected;
    Alcotest.test_case "timeout recovery after control loss" `Quick
      test_recovers_from_total_control_loss_via_timeout;
    Alcotest.test_case "duplicates dropped" `Quick
      test_duplicate_arrivals_counted_not_delivered;
    Alcotest.test_case "failure after N2" `Quick test_failure_after_n2;
    Alcotest.test_case "SR uses receive buffer" `Quick test_recv_buffer_used_in_sr;
    Alcotest.test_case "GBN never buffers" `Quick test_gbn_never_buffers;
    Alcotest.test_case "stutter: in order, zero loss" `Quick
      test_stutter_in_order_zero_loss;
    Alcotest.test_case "stutter fills idle time" `Quick test_stutter_fills_idle_time;
    Alcotest.test_case "stutter beats plain SR on lossy long link" `Quick
      test_stutter_faster_on_lossy_long_link;
    QCheck_alcotest.to_alcotest prop_in_order_zero_loss_across_seeds;
  ]
