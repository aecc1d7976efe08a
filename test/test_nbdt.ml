(* NBDT baseline tests: absolute numbering, selective reports, both
   modes, watchdog recovery, failure declaration. *)

let continuous = Nbdt.Params.default

let multiphase =
  { Nbdt.Params.default with Nbdt.Params.mode = Nbdt.Params.Multiphase; batch_size = 64 }

let test_params_validation () =
  (match Nbdt.Params.validate continuous with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "default invalid: %s" e);
  (match Nbdt.Params.validate { continuous with Nbdt.Params.report_interval = 0. } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero report interval accepted");
  (match Nbdt.Params.validate { continuous with Nbdt.Params.batch_size = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero batch accepted");
  List.iter
    (fun (what, p) ->
      match Nbdt.Params.validate p with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ( "report_interval = nan",
        { continuous with Nbdt.Params.report_interval = nan } );
      ( "resend_timeout = nan",
        { continuous with Nbdt.Params.resend_timeout = nan } );
      ("retx_cooldown = nan", { continuous with Nbdt.Params.retx_cooldown = nan });
    ]

let test_clean_link_delivery () =
  let t, _session = Proto_harness.nbdt ~params:continuous () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 300

let test_lossy_continuous_zero_loss () =
  let t, _session = Proto_harness.nbdt ~ber:1e-4 ~cber:1e-6 ~params:continuous () in
  Proto_harness.offer_all t 500;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 500;
  Alcotest.(check int) "loss accounting" 0
    (Dlc.Metrics.loss t.Proto_harness.dlc.Dlc.Session.metrics)

let test_lossy_multiphase_zero_loss () =
  let t, _session = Proto_harness.nbdt ~ber:1e-4 ~cber:1e-6 ~params:multiphase () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 300

let test_multiphase_alternates () =
  let t, session = Proto_harness.nbdt ~ber:1e-5 ~params:multiphase () in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  (* 300 frames / batches of 64 -> at least 4 full phases *)
  let sender = Nbdt.Session.sender session in
  Alcotest.(check bool) "phases counted" true
    (Nbdt.Sender.batches_completed sender >= 4)

let test_out_of_order_and_renumber_free () =
  (* deliveries may be out of order; the payload set must be exact *)
  let t, _session = Proto_harness.nbdt ~ber:3e-4 ~seed:23 ~params:continuous () in
  Proto_harness.offer_all t 400;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 400;
  let order = List.rev t.Proto_harness.delivery_order in
  Alcotest.(check bool) "some reordering occurred" true
    (order <> List.sort compare order)

let test_report_loss_recovered () =
  (* a dead reverse path stalls releases; the watchdog and cumulative
     reports recover once it heals *)
  let t, _session = Proto_harness.nbdt ~params:continuous () in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.001 (fun () ->
         Channel.Link.set_down t.Proto_harness.duplex.Channel.Duplex.reverse));
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.03 (fun () ->
         Channel.Link.set_up t.Proto_harness.duplex.Channel.Duplex.reverse));
  Proto_harness.offer_all t 200;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 200

let test_blackout_failure () =
  let t, session = Proto_harness.nbdt ~params:continuous () in
  let failed = ref false in
  Dlc.Probe.subscribe (Nbdt.Session.probe session) (fun ~now:_ -> function
    | Dlc.Probe.Failure_declared -> failed := true
    | _ -> ());
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.002 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex));
  Proto_harness.offer_all t 100;
  Proto_harness.run_to_completion t ~horizon:30.;
  Alcotest.(check bool) "failed after retries" true !failed;
  Alcotest.(check bool) "offers refused" false
    (t.Proto_harness.dlc.Dlc.Session.offer (Frame.Payload.of_string "x"))

let test_duplicates_dropped_not_delivered () =
  (* heavy report loss makes the sender resend already-received frames;
     the receiver must drop them *)
  let t, _session =
    Proto_harness.nbdt ~ber:1e-5 ~cber:3e-3 ~seed:3 ~params:continuous ()
  in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t ~horizon:120.;
  Proto_harness.delivered_exactly_once t 300

let prop_zero_loss_across_seeds =
  QCheck2.Test.make ~name:"nbdt zero loss for any seed and error rate" ~count:15
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 25) bool)
    (fun (seed, ber_scale, multi) ->
      let params = if multi then multiphase else continuous in
      let ber = float_of_int ber_scale *. 1e-5 in
      let t, _session = Proto_harness.nbdt ~seed ~ber ~cber:(ber /. 10.) ~params () in
      Proto_harness.offer_all t 120;
      Proto_harness.run_to_completion t ~horizon:120.;
      let ok = ref true in
      for i = 0 to 119 do
        match Hashtbl.find_opt t.Proto_harness.delivered (Proto_harness.payload i) with
        | Some 1 -> ()
        | _ -> ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "clean link delivery" `Quick test_clean_link_delivery;
    Alcotest.test_case "lossy continuous zero loss" `Quick test_lossy_continuous_zero_loss;
    Alcotest.test_case "lossy multiphase zero loss" `Quick test_lossy_multiphase_zero_loss;
    Alcotest.test_case "multiphase alternates" `Quick test_multiphase_alternates;
    Alcotest.test_case "out-of-order, absolute numbers" `Quick
      test_out_of_order_and_renumber_free;
    Alcotest.test_case "report loss recovered" `Quick test_report_loss_recovered;
    Alcotest.test_case "blackout failure" `Quick test_blackout_failure;
    Alcotest.test_case "duplicates dropped" `Quick test_duplicates_dropped_not_delivered;
    QCheck_alcotest.to_alcotest prop_zero_loss_across_seeds;
  ]
