(* LAMS-DLC protocol tests: parameter validation, delivery invariants,
   error recovery, flow control, enforced recovery and failure
   detection. *)

let ok_or_fail = function
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected validation error: %s" e

let test_params_validation () =
  ignore (ok_or_fail (Lams_dlc.Params.validate Lams_dlc.Params.default));
  let bad w_cp = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp } in
  (match Lams_dlc.Params.validate (bad 0.) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "w_cp = 0 accepted");
  (match
     Lams_dlc.Params.validate
       { Lams_dlc.Params.default with Lams_dlc.Params.c_depth = 0 }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "c_depth = 0 accepted");
  (* every comparison with nan is false: each check must fail it *)
  let d = Lams_dlc.Params.default in
  let drain r = { d with Lams_dlc.Params.recv_drain_rate = Some r } in
  List.iter
    (fun (what, p) ->
      match Lams_dlc.Params.validate p with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ("w_cp = nan", { d with Lams_dlc.Params.w_cp = nan });
      ("recv_drain_rate = Some 0", drain 0.);
      ("recv_drain_rate = Some (-1)", drain (-1.));
      ("recv_drain_rate = Some nan", drain nan);
      ("recv_drain_rate = Some inf", drain infinity);
    ];
  ignore (ok_or_fail (Lams_dlc.Params.validate (drain 1e4)))

let test_params_derived () =
  let p = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 0.01; c_depth = 4 } in
  Alcotest.(check (float 1e-12)) "checkpoint timeout" 0.04
    (Lams_dlc.Params.checkpoint_timeout p);
  Alcotest.(check (float 1e-12)) "resolving period" (0.1 +. 0.005 +. 0.04)
    (Lams_dlc.Params.resolving_period p ~rtt:0.1)

let test_clean_link_delivery () =
  let t, _session = Proto_harness.lams () in
  Proto_harness.offer_all t 100;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 100

let test_lossy_link_zero_loss () =
  let t, _session = Proto_harness.lams ~ber:1e-4 ~cber:1e-6 () in
  Proto_harness.offer_all t 500;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 500;
  Alcotest.(check int) "metrics agree" 0 (Dlc.Metrics.loss t.Proto_harness.dlc.Dlc.Session.metrics)

let test_retransmissions_happen () =
  let t, _session = Proto_harness.lams ~ber:1e-4 () in
  Proto_harness.offer_all t 500;
  Proto_harness.run_to_completion t;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  Alcotest.(check bool) "some retransmissions" true (m.Dlc.Metrics.retransmissions > 0)

let test_no_spurious_retransmissions_on_clean_link () =
  let t, _session = Proto_harness.lams () in
  Proto_harness.offer_all t 200;
  Proto_harness.run_to_completion t;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  Alcotest.(check int) "no retransmissions" 0 m.Dlc.Metrics.retransmissions;
  Alcotest.(check int) "no duplicates" 0 m.Dlc.Metrics.duplicates;
  Alcotest.(check int) "no enforced recoveries" 0 m.Dlc.Metrics.enforced_recoveries

let test_all_frames_released () =
  let t, session = Proto_harness.lams ~ber:1e-4 () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  ignore session;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  (* every offered frame is eventually released from the sending buffer
     (the last few can be pending the final checkpoint when we stop) *)
  Alcotest.(check bool) "released most frames" true (m.Dlc.Metrics.released >= 295)

let test_sequence_numbers_strictly_increase () =
  (* receiver-side check: arrival seqs on a FIFO link never decrease,
     because retransmissions are renumbered *)
  let engine = Sim.Engine.create () in
  let duplex = Proto_harness.make_duplex ~ber:1e-4 engine in
  let session = Lams_dlc.Session.create engine ~params:Lams_dlc.Params.default ~duplex in
  let receiver = Lams_dlc.Session.receiver session in
  let last = ref (-1) in
  let orig = Channel.Duplex.(duplex.forward) in
  Channel.Link.set_receiver orig (fun rx ->
      (match (rx.Channel.Link.frame, rx.Channel.Link.status) with
      | Frame.Wire.Data i, (Channel.Link.Rx_ok | Channel.Link.Rx_payload_corrupt) ->
          if i.Frame.Iframe.seq <= !last then
            Alcotest.failf "seq %d after %d" i.Frame.Iframe.seq !last;
          last := i.Frame.Iframe.seq
      | _ -> ());
      Lams_dlc.Receiver.on_rx receiver rx);
  let dlc = Lams_dlc.Session.as_dlc session in
  for i = 0 to 299 do
    ignore (dlc.Dlc.Session.offer (Proto_harness.payload i) : bool)
  done;
  Sim.Engine.run engine ~until:30.;
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine

let test_holding_time_bounded_by_resolving_period () =
  let params = Lams_dlc.Params.default in
  let distance = 1_000_000. in
  let t, _session = Proto_harness.lams ~ber:1e-4 ~distance ~params () in
  Proto_harness.offer_all t 500;
  Proto_harness.run_to_completion t;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  let rtt = 2. *. distance /. Channel.Link.speed_of_light in
  let resolving = Lams_dlc.Params.resolving_period params ~rtt in
  (* each individual *transmission* resolves within the resolving period;
     a frame whose retransmission is itself retransmitted holds longer,
     so allow a small multiple *)
  let bound = 4. *. resolving in
  let worst = Stats.Online.max m.Dlc.Metrics.holding_time in
  if worst > bound then
    Alcotest.failf "holding %g exceeds 4x resolving period %g" worst bound

let test_duplicates_none_without_failure () =
  let t, _session = Proto_harness.lams ~ber:3e-4 ~cber:1e-5 ~seed:99 () in
  Proto_harness.offer_all t 400;
  Proto_harness.run_to_completion t;
  let m = t.Proto_harness.dlc.Dlc.Session.metrics in
  Alcotest.(check int) "no duplicate deliveries" 0 m.Dlc.Metrics.duplicates

let test_checkpoint_loss_recovery_depth1 () =
  (* c_depth = 1 with a noisy control channel: every erroneous frame gets
     exactly one NAK chance; checkpoint losses must be absorbed by
     enforced recovery with zero loss *)
  let params =
    { Lams_dlc.Params.default with Lams_dlc.Params.c_depth = 1; w_cp = 1e-3 }
  in
  let t, _session = Proto_harness.lams ~ber:1e-4 ~cber:2e-4 ~seed:5 ~params () in
  Proto_harness.offer_all t 400;
  Proto_harness.run_to_completion t ~horizon:120.;
  Proto_harness.delivered_exactly_once t 400

let test_blackout_recovery () =
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3 } in
  let t, session = Proto_harness.lams ~ber:1e-5 ~params () in
  (* blackout from 5 ms to 15 ms; recovery headroom is ample *)
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.005 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex));
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.015 (fun () ->
         Channel.Duplex.set_up t.Proto_harness.duplex));
  Proto_harness.offer_all t 2000;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_at_least_once t 2000;
  let sender = Lams_dlc.Session.sender session in
  Alcotest.(check bool) "not failed" false (Lams_dlc.Sender.failed sender);
  Alcotest.(check bool) "recovered (not halted)" false (Lams_dlc.Sender.halted sender);
  Alcotest.(check bool) "enforced recovery ran" true
    (t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.enforced_recoveries > 0)

let test_permanent_blackout_declares_failure () =
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3 } in
  let t, session = Proto_harness.lams ~params () in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.005 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex));
  Proto_harness.offer_all t 1000;
  let failure_seen = ref false in
  Lams_dlc.Sender.set_on_failure (Lams_dlc.Session.sender session) (fun () ->
      failure_seen := true);
  Proto_harness.run_to_completion t ~horizon:10.;
  Alcotest.(check bool) "failure declared" true !failure_seen;
  Alcotest.(check bool) "sender reports failed" true
    (Lams_dlc.Sender.failed (Lams_dlc.Session.sender session));
  (* after failure, offers are refused *)
  Alcotest.(check bool) "offers refused after failure" false
    (t.Proto_harness.dlc.Dlc.Session.offer (Frame.Payload.of_string "late"))

let test_link_lifetime_gate () =
  (* recovery that cannot complete within the link lifetime fails fast *)
  let params =
    {
      Lams_dlc.Params.default with
      Lams_dlc.Params.w_cp = 1e-3;
      link_lifetime_end = Some 0.012;
    }
  in
  let t, session = Proto_harness.lams ~params () in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.005 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex));
  Proto_harness.offer_all t 100;
  Proto_harness.run_to_completion t ~horizon:1.;
  Alcotest.(check bool) "failed within lifetime" true
    (Lams_dlc.Sender.failed (Lams_dlc.Session.sender session));
  Alcotest.(check int) "no request-NAK sent (unreachable)" 0
    t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.enforced_recoveries

(* Every checkpoint's Stop-Go bit, in emission order: '1' for Stop. *)
let record_stop_go probe =
  let bits = Buffer.create 1024 in
  Dlc.Probe.listen probe
    {
      Dlc.Probe.no_handlers with
      cp_emitted =
        (fun ~cp_seq:_ ~next_expected:_ ~enforced:_ ~stop_go ~naks:_ ->
          Buffer.add_char bits (if stop_go then '1' else '0'));
    };
  bits

let test_stop_go_flow_control () =
  (* a receiver draining slower than the link forces Stop: the sender's
     rate factor must fall below 1 *)
  let params =
    {
      Lams_dlc.Params.default with
      Lams_dlc.Params.recv_drain_rate = Some 2000.;
      recv_high_watermark = 50;
      recv_low_watermark = 10;
      w_cp = 1e-3;
    }
  in
  let t, session = Proto_harness.lams ~params () in
  let bits = record_stop_go (Lams_dlc.Session.probe session) in
  Proto_harness.offer_all t 2000;
  Sim.Engine.run t.Proto_harness.engine ~until:0.2;
  let sender = Lams_dlc.Session.sender session in
  Alcotest.(check bool) "rate factor reduced" true
    (Lams_dlc.Sender.rate_factor sender < 1.);
  Alcotest.(check bool) "receiver queue passed the high watermark" true
    (t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.recv_buffer_peak > 50);
  Alcotest.(check bool) "some checkpoint carried Stop" true
    (String.contains (Buffer.contents bits) '1');
  t.Proto_harness.dlc.Dlc.Session.stop ();
  Sim.Engine.run t.Proto_harness.engine

(* The finite-drain-rate path, pinned: examples/flow_control.ml's session
   (seed 31, 1,000 km, drain 8,000 frames/s, watermarks 200/50, w_cp
   1 ms, 4,000 frames). At a finite rate the receiver's drain instants
   are not monotone, so the occupancy that each arrival samples and each
   checkpoint reports depends on draining in the engine's (time, seq)
   order. *)
let test_finite_drain_rate_pinned () =
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine ~rng:(Sim.Rng.create ~seed:31)
      ~distance_m:1_000_000. ~data_rate_bps:300e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:1e-6 ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:1e-9 ())
  in
  let params =
    {
      Lams_dlc.Params.default with
      Lams_dlc.Params.w_cp = 1e-3;
      recv_drain_rate = Some 8_000.;
      recv_high_watermark = 200;
      recv_low_watermark = 50;
    }
  in
  let session = Lams_dlc.Session.create engine ~params ~duplex in
  let bits = record_stop_go (Lams_dlc.Session.probe session) in
  let dlc = Lams_dlc.Session.as_dlc session in
  ignore
    (Workload.Arrivals.saturating engine ~session:dlc ~count:4000
       ~payload:(Workload.Arrivals.default_payload ~size:1024)
      : Workload.Arrivals.t);
  Sim.Engine.run engine ~until:2.;
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine;
  let m = dlc.Dlc.Session.metrics in
  Alcotest.(check int) "all delivered" 4000 (Dlc.Metrics.unique_delivered m);
  Alcotest.(check string) "recv_buffer mean" "0x1.98572b020c496p+7"
    (Printf.sprintf "%h" (Stats.Online.mean m.Dlc.Metrics.recv_buffer));
  Alcotest.(check int) "recv_buffer peak" 414 m.Dlc.Metrics.recv_buffer_peak;
  Alcotest.(check string) "checkpoints' Stop-Go bits"
    "272e265f15705580b5e7634bfc3716a6"
    (Digest.to_hex (Digest.string (Buffer.contents bits)))

let test_buffer_capacity_refusal () =
  let params =
    { Lams_dlc.Params.default with Lams_dlc.Params.send_buffer_capacity = 10 }
  in
  let t, _session = Proto_harness.lams ~distance:10_000_000. ~params () in
  let accepted = ref 0 in
  for i = 0 to 99 do
    if t.Proto_harness.dlc.Dlc.Session.offer (Proto_harness.payload i) then
      incr accepted
  done;
  Alcotest.(check int) "exactly capacity accepted" 10 !accepted;
  Alcotest.(check int) "refusals recorded" 90
    t.Proto_harness.dlc.Dlc.Session.metrics.Dlc.Metrics.refused;
  t.Proto_harness.dlc.Dlc.Session.stop ();
  Sim.Engine.run t.Proto_harness.engine

let test_out_of_order_delivery_possible () =
  (* with errors, LAMS-DLC may deliver out of order: verify the receiver
     does NOT reorder (the whole point of relaxing in-sequence) *)
  let t, _session = Proto_harness.lams ~ber:3e-4 ~seed:11 () in
  Proto_harness.offer_all t 500;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 500;
  let order = List.rev t.Proto_harness.delivery_order in
  let sorted = List.sort compare order in
  Alcotest.(check bool) "some reordering occurred" true (order <> sorted)

let test_drain_unresolved_after_failure () =
  (* permanent blackout: the union of delivered payloads and the drained
     buffer must cover every offer, and nothing marked Not_delivered may
     actually have been delivered — the §3.3 handoff guarantee *)
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3 } in
  let t, session = Proto_harness.lams ~ber:1e-4 ~params ~seed:17 () in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.01 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex));
  (* 1 kB payloads: serialisation is slow enough that the blackout halts
     the sender while frames still wait in the fresh queue *)
  let big_payload i = Workload.Arrivals.default_payload ~size:1024 i in
  for i = 0 to 1499 do
    if not (t.Proto_harness.dlc.Dlc.Session.offer (big_payload i)) then
      Alcotest.failf "offer %d refused" i
  done;
  Proto_harness.run_to_completion t ~horizon:5.;
  let sender = Lams_dlc.Session.sender session in
  Alcotest.(check bool) "failed" true (Lams_dlc.Sender.failed sender);
  let drained = Lams_dlc.Sender.drain_unresolved sender in
  Alcotest.(check int) "buffer emptied" 0 (Lams_dlc.Sender.backlog sender);
  let handed = Hashtbl.create 64 in
  List.iter
    (fun u ->
      Hashtbl.replace handed u.Lams_dlc.Sender.payload u.Lams_dlc.Sender.verdict)
    drained;
  let suspicious = ref 0 and not_delivered = ref 0 in
  for i = 0 to 1499 do
    let p = big_payload i in
    let delivered = Hashtbl.mem t.Proto_harness.delivered p in
    match Hashtbl.find_opt handed p with
    | Some `Suspicious -> incr suspicious
    | Some `Not_delivered ->
        incr not_delivered;
        if delivered then
          Alcotest.failf "payload %d marked Not_delivered but was delivered" i
    | None ->
        if not delivered then Alcotest.failf "payload %d lost entirely" i
  done;
  Alcotest.(check bool) "some frames were suspicious" true (!suspicious > 0);
  Alcotest.(check bool) "some frames were definitely undelivered" true
    (!not_delivered > 0)

let test_request_nak_backoff_pins () =
  (* w_cp = 1 ms, c_depth = 3 -> checkpoint_timeout 3 ms; attempt k
     waits 2^k times that *)
  let params =
    { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3; c_depth = 3 }
  in
  let check_backoff k expect =
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "attempt %d" k)
      expect
      (Lams_dlc.Params.request_nak_backoff params ~attempt:k)
  in
  check_backoff 0 3e-3;
  check_backoff 1 6e-3;
  check_backoff 2 12e-3;
  check_backoff 3 24e-3;
  (* the exponent clamps: huge attempt counts stay finite *)
  Alcotest.(check bool) "clamped attempts finite" true
    (Float.is_finite (Lams_dlc.Params.request_nak_backoff params ~attempt:10_000));
  Alcotest.check_raises "negative attempt rejected"
    (Invalid_argument "request_nak_backoff: negative attempt") (fun () ->
      ignore (Lams_dlc.Params.request_nak_backoff params ~attempt:(-1) : float));
  (* retries = 2, response = 2 ms: bound = 3*2 + (3 + 6 + 12) = 27 ms *)
  let params = { params with Lams_dlc.Params.request_nak_retries = 2 } in
  Alcotest.(check (float 1e-12)) "declaration bound" 27e-3
    (Lams_dlc.Params.failure_declaration_bound params ~response:2e-3)

let prop_backoff_within_declaration_bound =
  QCheck2.Test.make
    ~name:"total request-nak backoff bounded by failure declaration" ~count:300
    QCheck2.Gen.(
      triple (int_range 1 1000) (int_range 0 40) (int_range 0 500))
    (fun (w_cp_tenths_ms, retries, response_tenths_ms) ->
      let params =
        {
          Lams_dlc.Params.default with
          Lams_dlc.Params.w_cp = float_of_int w_cp_tenths_ms *. 1e-4;
          request_nak_retries = retries;
        }
      in
      let response = float_of_int response_tenths_ms *. 1e-4 in
      let bound = Lams_dlc.Params.failure_declaration_bound params ~response in
      (* the sum every attempt actually waits (backoff plus a response
         window each) never exceeds the declared bound, the bound is
         finite, and each attempt waits exactly twice the previous one
         below the clamp *)
      let total = ref 0. in
      let doubling = ref true in
      for k = 0 to retries do
        let b = Lams_dlc.Params.request_nak_backoff params ~attempt:k in
        if k > 0 && k <= 60 then
          doubling :=
            !doubling
            && Float.abs
                 (b -. (2. *. Lams_dlc.Params.request_nak_backoff params ~attempt:(k - 1)))
               <= 1e-15 *. b;
        total := !total +. response +. b
      done;
      Float.is_finite bound && !doubling && !total <= bound *. (1. +. 1e-12))

let prop_zero_loss_across_seeds =
  QCheck2.Test.make ~name:"zero loss for any seed and error rate" ~count:25
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 30))
    (fun (seed, ber_scale) ->
      let ber = float_of_int ber_scale *. 1e-5 in
      let t, _session = Proto_harness.lams ~seed ~ber ~cber:(ber /. 10.) () in
      Proto_harness.offer_all t 120;
      Proto_harness.run_to_completion t ~horizon:120.;
      let ok = ref true in
      for i = 0 to 119 do
        if not (Hashtbl.mem t.Proto_harness.delivered (Proto_harness.payload i))
        then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "params derived" `Quick test_params_derived;
    Alcotest.test_case "clean link delivery" `Quick test_clean_link_delivery;
    Alcotest.test_case "lossy link zero loss" `Quick test_lossy_link_zero_loss;
    Alcotest.test_case "retransmissions happen" `Quick test_retransmissions_happen;
    Alcotest.test_case "clean link: no spurious retx" `Quick
      test_no_spurious_retransmissions_on_clean_link;
    Alcotest.test_case "all frames released" `Quick test_all_frames_released;
    Alcotest.test_case "seqnums strictly increase" `Quick
      test_sequence_numbers_strictly_increase;
    Alcotest.test_case "holding bounded" `Quick
      test_holding_time_bounded_by_resolving_period;
    Alcotest.test_case "no duplicates without failure" `Quick
      test_duplicates_none_without_failure;
    Alcotest.test_case "c_depth=1 checkpoint-loss recovery" `Quick
      test_checkpoint_loss_recovery_depth1;
    Alcotest.test_case "blackout recovery" `Quick test_blackout_recovery;
    Alcotest.test_case "permanent blackout fails" `Quick
      test_permanent_blackout_declares_failure;
    Alcotest.test_case "link lifetime gate" `Quick test_link_lifetime_gate;
    Alcotest.test_case "stop-go flow control" `Quick test_stop_go_flow_control;
    Alcotest.test_case "buffer capacity refusal" `Quick test_buffer_capacity_refusal;
    Alcotest.test_case "out-of-order delivery" `Quick
      test_out_of_order_delivery_possible;
    Alcotest.test_case "drain after failure" `Quick
      test_drain_unresolved_after_failure;
    Alcotest.test_case "request-nak backoff pins" `Quick
      test_request_nak_backoff_pins;
    QCheck_alcotest.to_alcotest prop_backoff_within_declaration_bound;
    QCheck_alcotest.to_alcotest prop_zero_loss_across_seeds;
    Alcotest.test_case "finite drain rate, pinned" `Quick
      test_finite_drain_rate_pinned;
  ]
