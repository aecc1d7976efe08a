(* Unit-level HDLC receiver tests: synthetic arrivals in, supervisory
   frames out. Pins the SREJ/REJ/RR and in-order delivery machinery. *)

type harness = {
  engine : Sim.Engine.t;
  receiver : Hdlc.Receiver.t;
  sent : Frame.Hframe.t list ref;  (* newest first *)
  delivered : int list ref;  (* seqs, newest first *)
}

let make ?(mode = Hdlc.Params.Selective_repeat) ?(window = 8) () =
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
      | Channel.Link.Tap_tx (Frame.Wire.Hdlc_control h) -> sent := h :: !sent
      | _ -> ());
  Channel.Link.set_receiver reverse (fun _ -> ());
  let params = { Hdlc.Params.default with Hdlc.Params.mode; window } in
  let receiver =
    Hdlc.Receiver.create engine ~params ~reverse ~metrics:(Dlc.Metrics.create ())
      ~probe:(Dlc.Probe.create ())
  in
  let delivered = ref [] in
  Hdlc.Receiver.set_on_deliver receiver (fun ~payload:_ ~seq ->
      delivered := seq :: !delivered);
  { engine; receiver; sent; delivered }

let arrive h ?(status = Channel.Link.Rx_ok) seq =
  Hdlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Data
          (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string "unit"));
      status;
    };
  Sim.Engine.run h.engine

let controls_of_kind h kind =
  List.filter (fun hf -> hf.Frame.Hframe.kind = kind) !(h.sent)

let test_in_order_rr_per_advance () =
  let h = make () in
  arrive h 0;
  arrive h 1;
  Alcotest.(check (list int)) "delivered in order" [ 0; 1 ] (List.rev !(h.delivered));
  match controls_of_kind h Frame.Hframe.Rr with
  | rr :: _ -> Alcotest.(check int) "cumulative nr" 2 rr.Frame.Hframe.nr
  | [] -> Alcotest.fail "no RR emitted"

let test_sr_gap_srej_and_buffer () =
  let h = make () in
  arrive h 0;
  arrive h 2;
  (* seq 1 missing: buffered out-of-order, SREJ(1) emitted, no delivery *)
  Alcotest.(check (list int)) "only 0 delivered" [ 0 ] (List.rev !(h.delivered));
  Alcotest.(check int) "one buffered" 1 (Hdlc.Receiver.buffered h.receiver);
  (match controls_of_kind h Frame.Hframe.Srej with
  | [ srej ] -> Alcotest.(check int) "SREJ(1)" 1 srej.Frame.Hframe.nr
  | l -> Alcotest.failf "expected exactly one SREJ, got %d" (List.length l));
  (* the retransmission fills the gap: both deliver, buffer drains *)
  arrive h 1;
  Alcotest.(check (list int)) "drained in order" [ 0; 1; 2 ]
    (List.rev !(h.delivered));
  Alcotest.(check int) "buffer empty" 0 (Hdlc.Receiver.buffered h.receiver)

let test_sr_srej_not_repeated () =
  let h = make () in
  arrive h 0;
  arrive h 2;
  arrive h 3;
  arrive h 4;
  (* three out-of-order arrivals, still exactly one SREJ for seq 1 *)
  Alcotest.(check int) "single SREJ" 1
    (List.length (controls_of_kind h Frame.Hframe.Srej))

let test_gbn_discards_and_rejs_once () =
  let h = make ~mode:Hdlc.Params.Go_back_n () in
  arrive h 0;
  arrive h 2;
  arrive h 3;
  Alcotest.(check (list int)) "only in-order delivered" [ 0 ]
    (List.rev !(h.delivered));
  Alcotest.(check int) "nothing buffered" 0 (Hdlc.Receiver.buffered h.receiver);
  Alcotest.(check int) "one REJ per gap event" 1
    (List.length (controls_of_kind h Frame.Hframe.Rej))

let test_below_window_duplicate_reacked () =
  let h = make () in
  arrive h 0;
  arrive h 1;
  let rr_before = List.length (controls_of_kind h Frame.Hframe.Rr) in
  arrive h 0;
  (* duplicate: dropped, re-acknowledged *)
  Alcotest.(check (list int)) "not redelivered" [ 0; 1 ] (List.rev !(h.delivered));
  Alcotest.(check int) "extra RR" (rr_before + 1)
    (List.length (controls_of_kind h Frame.Hframe.Rr))

let test_poll_answered_with_final () =
  let h = make () in
  arrive h 0;
  Hdlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Hdlc_control
          (Frame.Hframe.create ~kind:Frame.Hframe.Rr ~nr:0 ~pf:true);
      status = Channel.Link.Rx_ok;
    };
  Sim.Engine.run h.engine;
  match !(h.sent) with
  | hf :: _ ->
      Alcotest.(check bool) "final bit" true hf.Frame.Hframe.pf;
      Alcotest.(check int) "reports v_r" 1 hf.Frame.Hframe.nr
  | [] -> Alcotest.fail "poll unanswered"

let test_poll_rerequests_missing () =
  let h = make () in
  arrive h 0;
  arrive h 2;
  let srejs () = List.length (controls_of_kind h Frame.Hframe.Srej) in
  Alcotest.(check int) "first SREJ" 1 (srejs ());
  (* poll implies the sender is stuck: the missing frame is re-SREJed *)
  Hdlc.Receiver.on_rx h.receiver
    {
      Channel.Link.frame =
        Frame.Wire.Hdlc_control
          (Frame.Hframe.create ~kind:Frame.Hframe.Rr ~nr:0 ~pf:true);
      status = Channel.Link.Rx_ok;
    };
  Sim.Engine.run h.engine;
  Alcotest.(check int) "re-SREJed on poll" 2 (srejs ())

let test_corrupt_in_window_srejed () =
  let h = make () in
  arrive h 0;
  arrive h ~status:Channel.Link.Rx_payload_corrupt 1;
  match controls_of_kind h Frame.Hframe.Srej with
  | [ srej ] -> Alcotest.(check int) "SREJ for corrupt frame" 1 srej.Frame.Hframe.nr
  | l -> Alcotest.failf "expected one SREJ, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "in-order RR per advance" `Quick test_in_order_rr_per_advance;
    Alcotest.test_case "SR gap: SREJ + buffer" `Quick test_sr_gap_srej_and_buffer;
    Alcotest.test_case "SREJ not repeated" `Quick test_sr_srej_not_repeated;
    Alcotest.test_case "GBN discards + one REJ" `Quick test_gbn_discards_and_rejs_once;
    Alcotest.test_case "duplicate re-acked" `Quick test_below_window_duplicate_reacked;
    Alcotest.test_case "poll answered with F" `Quick test_poll_answered_with_final;
    Alcotest.test_case "poll re-requests missing" `Quick test_poll_rerequests_missing;
    Alcotest.test_case "corrupt in window SREJed" `Quick test_corrupt_in_window_srejed;
  ]
