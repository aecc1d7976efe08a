(* Unit-level HDLC sender tests: window discipline, cumulative RR,
   SREJ/REJ handling, observed through a link tap. *)

type harness = {
  engine : Sim.Engine.t;
  sender : Hdlc.Sender.t;
  txed : int list ref;  (* I-frame seqs in transmission order, newest first *)
}

let make ?(mode = Hdlc.Params.Selective_repeat) ?(window = 4) () =
  let engine = Sim.Engine.create () in
  let forward =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let txed = ref [] in
  Channel.Link.add_tap forward (fun ev ->
      match ev with
      | Channel.Link.Tap_tx (Frame.Wire.Data i) ->
          txed := i.Frame.Iframe.seq :: !txed
      | _ -> ());
  Channel.Link.set_receiver forward (fun _ -> ());
  let params =
    { Hdlc.Params.default with Hdlc.Params.mode; window; seq_bits = 3 }
  in
  let sender =
    Hdlc.Sender.create engine ~params ~forward ~metrics:(Dlc.Metrics.create ())
      ~probe:(Dlc.Probe.create ())
  in
  { engine; sender; txed }

let offer_n h n =
  for i = 0 to n - 1 do
    let p = Frame.Payload.of_string (Printf.sprintf "p%d" i) in
    if not (Hdlc.Sender.offer h.sender p) then
      Alcotest.failf "offer %d refused" i
  done;
  Sim.Engine.run h.engine ~until:(Sim.Engine.now h.engine +. 1e-3)

let control h ?(pf = false) kind nr =
  Hdlc.Sender.on_rx h.sender
    {
      Channel.Link.frame =
        Frame.Wire.Hdlc_control (Frame.Hframe.create ~kind ~nr ~pf);
      status = Channel.Link.Rx_ok;
    };
  Sim.Engine.run h.engine ~until:(Sim.Engine.now h.engine +. 1e-3)

let test_window_blocks_at_w () =
  let h = make ~window:4 () in
  offer_n h 10;
  Alcotest.(check (list int)) "only W transmitted" [ 0; 1; 2; 3 ]
    (List.rev !(h.txed));
  Alcotest.(check int) "in window" 4 (Hdlc.Sender.in_window h.sender);
  Alcotest.(check bool) "stalled" true (Hdlc.Sender.window_stalled h.sender)

let test_rr_slides_window () =
  let h = make ~window:4 () in
  offer_n h 10;
  control h Frame.Hframe.Rr 2;
  (* frames 0,1 acked: 4,5 may go (modulo-8 numbering) *)
  Alcotest.(check (list int)) "window slid" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !(h.txed));
  Alcotest.(check int) "two unacked remain capped" 4
    (Hdlc.Sender.in_window h.sender)

let test_srej_retransmits_selectively () =
  let h = make ~window:4 () in
  offer_n h 4;
  control h Frame.Hframe.Srej 1;
  (* frame 1 resent; others untouched; no window slide *)
  Alcotest.(check (list int)) "selective resend" [ 0; 1; 2; 3; 1 ]
    (List.rev !(h.txed));
  Alcotest.(check int) "window unchanged" 4 (Hdlc.Sender.in_window h.sender)

let test_rej_rolls_back () =
  let h = make ~mode:Hdlc.Params.Go_back_n ~window:4 () in
  offer_n h 4;
  control h Frame.Hframe.Rej 1;
  (* frame 0 acked; 1,2,3 resent in order *)
  Alcotest.(check (list int)) "go-back-n" [ 0; 1; 2; 3; 1; 2; 3 ]
    (List.rev !(h.txed))

let test_cumulative_ack_releases_all () =
  let h = make ~window:4 () in
  offer_n h 4;
  control h Frame.Hframe.Rr 4;
  Alcotest.(check int) "all released" 0 (Hdlc.Sender.in_window h.sender);
  Alcotest.(check int) "backlog empty" 0 (Hdlc.Sender.backlog h.sender)

let test_stale_rr_ignored () =
  let h = make ~window:4 () in
  offer_n h 4;
  control h Frame.Hframe.Rr 2;
  control h Frame.Hframe.Rr 2;
  (* repeat of the same cumulative ack: harmless *)
  Alcotest.(check int) "no double release" 2
    (4 - Hdlc.Sender.in_window h.sender + 2 - 2);
  Alcotest.(check bool) "not failed" false (Hdlc.Sender.failed h.sender)

let test_modulo_wrap_window () =
  (* seq_bits = 3: after 8 frames the numbers wrap; the window arithmetic
     must keep working across the wrap *)
  let h = make ~window:4 () in
  offer_n h 12;
  control h Frame.Hframe.Rr 4;
  control h Frame.Hframe.Rr 0 (* = 8 mod 8: acknowledges 4..7 *);
  control h Frame.Hframe.Rr 4 (* = 12 mod 8: acknowledges the rest *);
  (* all 12 transmitted, numbers wrapping: 0..7 then 0..3 *)
  Alcotest.(check (list int)) "wrapped numbering"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 0; 1; 2; 3 ]
    (List.rev !(h.txed));
  Alcotest.(check int) "all released" 0 (Hdlc.Sender.backlog h.sender)

let suite =
  [
    Alcotest.test_case "window blocks at W" `Quick test_window_blocks_at_w;
    Alcotest.test_case "RR slides window" `Quick test_rr_slides_window;
    Alcotest.test_case "SREJ selective resend" `Quick test_srej_retransmits_selectively;
    Alcotest.test_case "REJ rolls back" `Quick test_rej_rolls_back;
    Alcotest.test_case "cumulative ack releases" `Quick test_cumulative_ack_releases_all;
    Alcotest.test_case "stale RR ignored" `Quick test_stale_rr_ignored;
    Alcotest.test_case "modulo wrap window" `Quick test_modulo_wrap_window;
  ]
