(* Scripted-disaster scenarios: every named fault schedule must leave the
   protocol with zero invariant violations (the oracle watches every
   harness session), and a deliberately broken configuration must trip
   the no-loss invariant — proving the oracle can actually see blood. *)

let fast = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3 }

let recovery_counter session =
  let n = ref 0 in
  Dlc.Probe.subscribe
    (Lams_dlc.Session.probe session)
    (fun ~now:_ ev ->
      match ev with Dlc.Probe.Recovery_started -> incr n | _ -> ());
  n

(* The number of frames a fault script affects, counted by an observer. *)
let hits fault =
  let n = ref 0 in
  Channel.Fault.set_observer fault (fun ~now:_ _ _ -> incr n);
  n

(* --- LAMS-DLC scenarios ------------------------------------------------- *)

let test_kill_checkpoints_3_5 () =
  (* c_depth = 3 consecutive checkpoint losses: the silence exceeds the
     checkpoint timeout, so the sender must run enforced recovery and
     lose nothing *)
  let cp_faults =
    Channel.Fault.(of_rules [ rule (Cp_range (3, 5)) Drop ])
  in
  let cp_faults_hits = hits cp_faults in
  let t, session =
    Proto_harness.lams ~params:fast ~reverse_faults:cp_faults ()
  in
  let recoveries = recovery_counter session in
  Proto_harness.offer_all t 200;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_at_least_once t 200;
  Alcotest.(check int) "exactly the 3 checkpoints died" 3
    !cp_faults_hits;
  Alcotest.(check bool) "enforced recovery ran" true (!recoveries > 0)

let test_frame_17_first_two_copies () =
  (* the logical frame is tracked by payload across LAMS renumbering:
     both early copies die, the NAK cycle runs twice, the third copy
     lands *)
  let faults =
    Channel.Fault.(
      of_rules
        [ rule ~copies:2 (I_payload (Proto_harness.payload 17)) Drop ])
  in
  let faults_hits = hits faults in
  let t, _session = Proto_harness.lams ~faults () in
  Proto_harness.offer_all t 40;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 40;
  Alcotest.(check int) "two copies killed" 2 !faults_hits

let test_lost_checkpoint_naks () =
  (* a corrupted frame is NAKed in c_depth = 3 consecutive checkpoints;
     the first two Check-Point-NAKs die in transit and the third must
     still recover the frame *)
  let faults =
    Channel.Fault.(
      of_rules
        [ rule ~copies:1 (I_payload (Proto_harness.payload 10)) Corrupt_payload ])
  in
  let reverse_faults = Channel.Fault.(of_rules [ rule ~copies:2 Cp_nak Drop ]) in
  let reverse_faults_hits = hits reverse_faults in
  let t, _session = Proto_harness.lams ~faults ~reverse_faults () in
  Proto_harness.offer_all t 40;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 40;
  Alcotest.(check int) "two NAK checkpoints died" 2
    !reverse_faults_hits

let test_payload_corrupt_run () =
  (* five payload-CRC failures in a row: each is identifiable by its
     header, so each is NAKed individually and retransmitted *)
  let faults =
    Channel.Fault.(
      of_rules
        (List.init 5 (fun k -> rule ~copies:1 (I_nth (5 + k)) Corrupt_payload)))
  in
  let faults_hits = hits faults in
  let t, _session = Proto_harness.lams ~faults () in
  Proto_harness.offer_all t 60;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 60;
  Alcotest.(check int) "five payloads corrupted" 5 !faults_hits

let test_header_corrupt_frames () =
  (* unidentifiable arrivals: the receiver cannot NAK what it cannot
     name; gap detection via later frames must still recover both *)
  let faults =
    Channel.Fault.(
      of_rules
        [
          rule ~copies:1 (I_nth 3) Corrupt_header;
          rule ~copies:1 (I_nth 7) Corrupt_header;
        ])
  in
  let t, _session = Proto_harness.lams ~faults () in
  Proto_harness.offer_all t 50;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 50

let test_request_nak_lost_during_recovery () =
  (* checkpoints 3-8 die, forcing enforced recovery; the first
     Request-NAK dies too, so the sender's retry logic must carry it *)
  let faults = Channel.Fault.(of_rules [ rule ~copies:1 Req_nak Drop ]) in
  let faults_hits = hits faults in
  let reverse_faults = Channel.Fault.(of_rules [ rule (Cp_range (3, 8)) Drop ]) in
  let t, session =
    Proto_harness.lams ~params:fast ~faults ~reverse_faults ()
  in
  let recoveries = recovery_counter session in
  Proto_harness.offer_all t 150;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_at_least_once t 150;
  Alcotest.(check bool) "request-NAK was killed" true
    (!faults_hits >= 1);
  Alcotest.(check bool) "recovery still completed" true (!recoveries > 0)

let test_enforced_nak_lost_during_recovery () =
  (* the answer direction fails instead: the first Enforced-NAK dies and
     the failure-timer retry must fetch a second one *)
  let reverse_faults =
    Channel.Fault.(
      of_rules [ rule (Cp_range (3, 8)) Drop; rule ~copies:1 Cp_enforced Drop ])
  in
  let t, session = Proto_harness.lams ~params:fast ~reverse_faults () in
  let recoveries = recovery_counter session in
  Proto_harness.offer_all t 150;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_at_least_once t 150;
  Alcotest.(check bool) "recovery completed despite lost answer" true
    (!recoveries > 0);
  Alcotest.(check bool) "sender not failed" false
    (Lams_dlc.Sender.failed (Lams_dlc.Session.sender session))

let test_burst_window_both_directions () =
  (* a 2 ms bidirectional outage window: I-frames and checkpoints both
     vanish; cumulative NAKs plus enforced recovery must cover it *)
  let faults =
    Channel.Fault.(of_rules [ rule ~window:(0.002, 0.004) Any_iframe Drop ])
  in
  let faults_hits = hits faults in
  let reverse_faults =
    Channel.Fault.(of_rules [ rule ~window:(0.002, 0.004) Any_control Drop ])
  in
  let t, _session =
    Proto_harness.lams ~params:fast ~faults ~reverse_faults ()
  in
  Proto_harness.offer_all t 300;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_at_least_once t 300;
  Alcotest.(check bool) "the burst actually hit traffic" true
    (!faults_hits > 0)

let test_seeded_adversary () =
  (* reproducible chaos: i.i.d. drops on both frame classes from a fixed
     seed; whatever falls, nothing may be lost or mis-released *)
  let faults =
    Channel.Fault.(compile (adversary ~seed:42 ~p_iframe:0.15 ()))
  in
  let faults_hits = hits faults in
  let reverse_faults =
    Channel.Fault.(compile (adversary ~seed:43 ~p_control:0.05 ()))
  in
  let t, _session =
    Proto_harness.lams ~params:fast ~faults ~reverse_faults ()
  in
  Proto_harness.offer_all t 200;
  Proto_harness.run_to_completion t ~horizon:120.;
  Proto_harness.delivered_at_least_once t 200;
  Alcotest.(check bool) "adversary drew blood" true
    (!faults_hits > 0)

(* --- HDLC / NBDT scenarios --------------------------------------------- *)

let test_hdlc_sr_faults () =
  (* drop a frame copy and the SREJ that asks for it again: checkpoint
     (poll) recovery must re-request it; order and uniqueness hold *)
  let faults = Channel.Fault.(of_rules [ rule ~copies:1 (I_seq 5) Drop ]) in
  let reverse_faults =
    Channel.Fault.(of_rules [ rule ~copies:1 (Control_nth 5) Drop ])
  in
  let t, _session = Proto_harness.hdlc ~faults ~reverse_faults () in
  Proto_harness.offer_all t 60;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 60;
  Proto_harness.in_order t

let test_hdlc_gbn_faults () =
  let params =
    { Hdlc.Params.default with Hdlc.Params.mode = Hdlc.Params.Go_back_n }
  in
  let faults =
    Channel.Fault.(
      of_rules
        [ rule ~copies:1 (I_nth 10) Drop; rule ~copies:1 (I_nth 25) Corrupt_payload ])
  in
  let t, _session = Proto_harness.hdlc ~params ~faults () in
  Proto_harness.offer_all t 60;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 60;
  Proto_harness.in_order t

let test_hdlc_seqnum_wraparound () =
  (* seq_bits = 3: the cyclic space holds 8 numbers and the SR window 4,
     so 120 frames wrap the numbering 15 times; drops force window-edge
     retransmissions. The oracle checks range, window occupancy, order
     and uniqueness across every wrap *)
  let params =
    { Hdlc.Params.default with Hdlc.Params.seq_bits = 3; window = 4 }
  in
  let faults =
    Channel.Fault.(
      of_rules
        [ rule ~copies:1 (I_nth 9) Drop; rule ~copies:1 (I_nth 40) Corrupt_payload ])
  in
  let t, _session = Proto_harness.hdlc ~params ~faults () in
  Proto_harness.offer_all t 120;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 120;
  Proto_harness.in_order t

let test_nbdt_faults () =
  (* NBDT keeps absolute numbers; drop a frame and the two status reports
     that would have NAKed it — the cumulative next report recovers it *)
  let faults = Channel.Fault.(of_rules [ rule ~copies:1 (I_nth 4) Drop ]) in
  let reverse_faults = Channel.Fault.(of_rules [ rule ~copies:2 Cp_nak Drop ]) in
  let t, _session = Proto_harness.nbdt ~faults ~reverse_faults () in
  Proto_harness.offer_all t 60;
  Proto_harness.run_to_completion t;
  Proto_harness.delivered_exactly_once t 60

(* --- the oracle must be able to see blood ------------------------------- *)

let test_broken_c_depth0_trips_no_loss () =
  (* c_depth = 0 is rejected by Params.validate, so build the halves
     directly, misconfiguring only the receiver: its NAK history window
     is empty, it never reports the dropped frame, the sender sees
     next_expected pass the gap and releases an undelivered payload —
     the oracle must call it *)
  let broken = { Lams_dlc.Params.default with Lams_dlc.Params.c_depth = 0 } in
  let engine = Sim.Engine.create () in
  let duplex = Proto_harness.make_duplex engine in
  let probe = Dlc.Probe.create () in
  let metrics = Dlc.Metrics.create () in
  let sender =
    Lams_dlc.Sender.create engine ~params:Lams_dlc.Params.default
      ~forward:duplex.Channel.Duplex.forward ~metrics ~probe
  in
  let receiver =
    Lams_dlc.Receiver.create engine ~params:broken
      ~reverse:duplex.Channel.Duplex.reverse ~metrics ~probe
  in
  Channel.Link.set_receiver duplex.Channel.Duplex.forward (fun rx ->
      Lams_dlc.Receiver.on_rx receiver rx);
  Channel.Link.set_receiver duplex.Channel.Duplex.reverse (fun rx ->
      Lams_dlc.Sender.on_rx sender rx);
  let oracle =
    Oracle.create ~name:"broken-config"
      (Oracle.Lams { c_depth = 0; holding_bound = 1.0 })
  in
  Oracle.attach oracle ~probe ~duplex;
  let faults =
    Channel.Fault.(
      of_rules [ rule ~copies:1 (I_payload (Proto_harness.payload 5)) Drop ])
  in
  Channel.Fault.install faults duplex.Channel.Duplex.forward;
  for i = 0 to 19 do
    if not (Lams_dlc.Sender.offer sender (Proto_harness.payload i)) then
      Alcotest.failf "offer %d refused" i
  done;
  Sim.Engine.run engine ~until:1.;
  Lams_dlc.Sender.stop sender;
  Lams_dlc.Receiver.stop receiver;
  Sim.Engine.run engine;
  Oracle.finalize oracle;
  let vs = Oracle.violations oracle in
  Alcotest.(check bool) "oracle saw the loss" true (vs <> []);
  if not (List.exists (fun v -> v.Oracle.invariant = "released-undelivered") vs)
  then
    Alcotest.failf "expected released-undelivered, got:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Oracle.pp_violation) vs))

(* --- random fault-script explorer --------------------------------------- *)

(* Safety must hold under EVERY fault schedule: random scripts on both
   directions, the protocol may stall or declare failure, but the oracle
   must stay clean. QCheck shrinks a failing schedule to a minimal one. *)

let selector_to_string (s : Channel.Fault.selector) =
  match s with
  | Channel.Fault.I_seq n -> Printf.sprintf "I_seq %d" n
  | I_payload p -> Printf.sprintf "I_payload %S" (Frame.Payload.to_string p)
  | I_nth n -> Printf.sprintf "I_nth %d" n
  | Cp_seq n -> Printf.sprintf "Cp_seq %d" n
  | Cp_range (a, b) -> Printf.sprintf "Cp_range (%d,%d)" a b
  | Cp_nak -> "Cp_nak"
  | Cp_enforced -> "Cp_enforced"
  | Req_nak -> "Req_nak"
  | Control_nth n -> Printf.sprintf "Control_nth %d" n
  | Any_iframe -> "Any_iframe"
  | Any_control -> "Any_control"
  | Any_frame -> "Any_frame"

let action_to_string = function
  | Channel.Fault.Drop -> "Drop"
  | Channel.Fault.Corrupt_payload -> "Corrupt_payload"
  | Channel.Fault.Corrupt_header -> "Corrupt_header"
  | Channel.Fault.Forge_ack -> "Forge_ack"
  | Channel.Fault.Rewrite_cp_seq { delta } ->
      Printf.sprintf "Rewrite_cp_seq %+d" delta
  | Channel.Fault.Inject_stale_cp { back } ->
      Printf.sprintf "Inject_stale_cp back=%d" back

let script_to_string script =
  String.concat "; "
    (List.map
       (fun (sel, act, copies) ->
         Printf.sprintf "%s -> %s x%d" (selector_to_string sel)
           (action_to_string act) copies)
       script)

let gen_action =
  QCheck2.Gen.oneofl
    [ Channel.Fault.Drop; Channel.Fault.Corrupt_payload; Channel.Fault.Corrupt_header ]

let gen_forward_selector =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Channel.Fault.I_nth n) (int_range 0 50);
        map
          (fun p -> Channel.Fault.I_payload (Proto_harness.payload p))
          (int_range 0 50);
        return Channel.Fault.Req_nak;
      ])

let gen_reverse_selector =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Channel.Fault.Cp_seq n) (int_range 0 40);
        map2
          (fun lo len -> Channel.Fault.Cp_range (lo, lo + len))
          (int_range 0 30) (int_range 0 2);
        return Channel.Fault.Cp_nak;
        return Channel.Fault.Cp_enforced;
        map (fun n -> Channel.Fault.Control_nth n) (int_range 0 40);
      ])

let gen_script sel =
  QCheck2.Gen.(
    list_size (int_range 0 5)
      (map2 (fun (s, a) c -> (s, a, c)) (pair sel gen_action) (int_range 1 3)))

let compile_script script =
  Channel.Fault.of_rules
    (List.map
       (fun (sel, act, copies) -> Channel.Fault.rule ~copies sel act)
       script)

let prop_safety_under_any_fault_script =
  QCheck2.Test.make ~name:"safety under random fault scripts" ~count:40
    ~print:(fun (fwd, rev, seed) ->
      Printf.sprintf "seed %d\n  forward: [%s]\n  reverse: [%s]" seed
        (script_to_string fwd) (script_to_string rev))
    QCheck2.Gen.(
      triple (gen_script gen_forward_selector) (gen_script gen_reverse_selector)
        (int_range 0 1000))
    (fun (fwd, rev, seed) ->
      let t, _session =
        Proto_harness.lams ~seed ~params:fast
          ~faults:(compile_script fwd)
          ~reverse_faults:(compile_script rev) ()
      in
      Proto_harness.offer_all t 60;
      Proto_harness.run_to_completion t ~horizon:30. ~check_oracle:false;
      Oracle.finalize t.Proto_harness.oracle;
      Oracle.violation_count t.Proto_harness.oracle = 0)

(* The violation list is capped at 200; the counts are not. 300
   releases of frames nobody delivered are 300 wrongful releases. *)
let test_counts_past_the_cap () =
  let oracle =
    Oracle.create (Oracle.Lams { c_depth = 3; holding_bound = infinity })
  in
  let probe = Dlc.Probe.create () in
  Oracle.observe oracle probe;
  let transfer = Oracle.Transfer.create ~name:"transfer" in
  Oracle.Transfer.observe transfer probe;
  for seq = 0 to 299 do
    let payload = Proto_harness.payload seq in
    Dlc.Probe.emit probe ~now:0. (Dlc.Probe.Tx { seq; payload; retx = false });
    Dlc.Probe.emit probe ~now:0. (Dlc.Probe.Released { seq; payload })
  done;
  Alcotest.(check int) "list capped" 200 (List.length (Oracle.violations oracle));
  Alcotest.(check int) "violation_count" 300 (Oracle.violation_count oracle);
  Alcotest.(check int) "wrongful_releases" 300 (Oracle.wrongful_releases oracle);
  (* and a delivery of a payload never offered, 300 times over *)
  for seq = 0 to 299 do
    Dlc.Probe.emit probe ~now:0.
      (Dlc.Probe.Delivered { seq; payload = Proto_harness.payload seq })
  done;
  Alcotest.(check int) "transfer list capped" 200
    (List.length (Oracle.Transfer.violations transfer));
  Alcotest.(check int) "transfer violation_count" 300
    (Oracle.Transfer.violation_count transfer)

(* --- the suspect window, one script through both checkers ---------------- *)

let lams_oracle () =
  Oracle.create (Oracle.Lams { c_depth = 3; holding_bound = infinity })

let emit probe now ev = Dlc.Probe.emit probe ~now ev

let inject probe now =
  emit probe now (Dlc.Probe.State_corrupted { klass = "test"; detail = "" })

(* A delivery nobody sent or offered: two anomalies for the base oracle
   (delivered-unsent, delivery-overcount), one for the transfer check
   (transfer-unoffered). *)
let ghost probe now seq =
  emit probe now
    (Dlc.Probe.Delivered
       { seq; payload = Frame.Payload.of_string (Printf.sprintf "ghost-%d" seq) })

let checkpoint probe now =
  emit probe now
    (Dlc.Probe.Cp_emitted
       {
         cp_seq = 0;
         next_expected = 0;
         enforced = false;
         stop_go = false;
         naks = [];
       })

(* The base oracle and the transfer check on one probe, both in
   convergence mode with budget [k], and the Converged events they
   publish. *)
let two_checkers ~k =
  let probe = Dlc.Probe.create () in
  let oracle = lams_oracle () in
  Oracle.set_convergence oracle ~k;
  Oracle.observe oracle probe;
  let transfer = Oracle.Transfer.create ~name:"transfer" in
  Oracle.Transfer.set_convergence transfer ~k;
  Oracle.Transfer.observe transfer probe;
  let converged = ref [] in
  Dlc.Probe.listen probe
    {
      Dlc.Probe.no_handlers with
      other =
        (fun ~now:_ -> function
          | Dlc.Probe.Converged { after; anomalies } ->
              converged := (after, anomalies) :: !converged
          | _ -> ());
    };
  (probe, oracle, transfer, converged)

let test_one_suspect_window () =
  let probe, oracle, transfer, converged = two_checkers ~k:2 in
  let check_both what f =
    f ("oracle: " ^ what) (Oracle.convergence oracle);
    f ("transfer: " ^ what) (Oracle.Transfer.convergence transfer)
  in
  (* a window still open reads as unconverged *)
  let is_open what expected =
    check_both what (fun msg c ->
        Alcotest.(check bool) msg expected c.Oracle.unconverged)
  in
  inject probe 1.0;
  is_open "an injection opens the window" true;
  ghost probe 1.5 7;
  Alcotest.(check (pair int int))
    "anomalies tolerated" (2, 1)
    ( (Oracle.convergence oracle).tolerated,
      (Oracle.Transfer.convergence transfer).tolerated );
  Alcotest.(check (pair int int))
    "no violation" (0, 0)
    (Oracle.violation_count oracle, Oracle.Transfer.violation_count transfer);
  checkpoint probe 2.0;
  is_open "one clean checkpoint of two" true;
  checkpoint probe 3.0;
  is_open "two checkpoints close it" false;
  Alcotest.(check (list (pair (float 0.) int)))
    "one Converged each, after = last anomaly - injection"
    [ (0.5, 2); (0.5, 1) ]
    (List.rev !converged);
  check_both "time-to-convergence" (fun msg c ->
      Alcotest.(check (list (float 0.))) msg [ 0.5 ] c.Oracle.times);
  inject probe 4.0;
  emit probe 4.5 Dlc.Probe.Failure_declared;
  check_both "a declared failure closes it" (fun msg c ->
      Alcotest.(check (pair bool bool)) msg (true, false)
        (c.Oracle.declared, c.Oracle.unconverged));
  Alcotest.(check int) "without Converged" 2 (List.length !converged);
  inject probe 5.0;
  ghost probe 5.5 8;
  Oracle.finalize oracle;
  Oracle.Transfer.finalize transfer;
  is_open "open with anomalies at finalize: unconverged" true;
  let invariants vs = List.map (fun v -> v.Oracle.invariant) vs in
  Alcotest.(check (list string)) "oracle: non-convergence" [ "non-convergence" ]
    (invariants (Oracle.violations oracle));
  Alcotest.(check (list string)) "transfer: non-convergence"
    [ "non-convergence" ]
    (invariants (Oracle.Transfer.violations transfer));
  check_both "windows closed by checkpoints" (fun msg c ->
      Alcotest.(check int) msg 1 (List.length c.Oracle.times))

let test_k0_opens_nothing () =
  let probe, oracle, transfer, converged = two_checkers ~k:0 in
  inject probe 1.0;
  ghost probe 1.5 7;
  checkpoint probe 2.0;
  let o = Oracle.convergence oracle
  and t = Oracle.Transfer.convergence transfer in
  Alcotest.(check (pair int int))
    "anomalies are violations" (2, 1)
    (Oracle.violation_count oracle, Oracle.Transfer.violation_count transfer);
  Alcotest.(check (pair int int))
    "nothing tolerated" (0, 0) (o.tolerated, t.tolerated);
  Alcotest.(check (pair bool bool))
    "no window" (false, false) (o.unconverged, t.unconverged);
  Alcotest.(check int) "no Converged" 0 (List.length !converged)

(* The one rule the checkers do not share: once an injection was seen,
   the base oracle tolerates its finalize-time ([nan]-stamped) checks,
   which aggregate over the whole run; the transfer check records its
   end-of-run losses. Both windows have closed cleanly here. *)
let test_finalize_time_rule () =
  let underrun ~injected =
    let probe = Dlc.Probe.create () in
    let oracle = lams_oracle () in
    Oracle.set_convergence oracle ~k:2;
    Oracle.observe oracle probe;
    let engine = Sim.Engine.create () in
    let reverse =
      Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:1)
        ~distance_m:(fun _ -> 1000.) ~data_rate_bps:1e9
        ~iframe_error:Channel.Error_model.perfect
        ~cframe_error:Channel.Error_model.perfect
    in
    Oracle.observe_reverse oracle reverse;
    (* seq 5 NAKed once of c_depth = 3, then dropped: a NAK underrun *)
    List.iter
      (fun (cp_seq, naks) ->
        Channel.Link.send reverse
          (Frame.Wire.Control
             (Frame.Cframe.checkpoint ~cp_seq ~issue_time:0. ~stop_go:false
                ~enforced:false ~next_expected:0 ~naks)))
      [ (0, [ 5 ]); (1, []) ];
    Sim.Engine.run engine;
    if injected then inject probe 1.0;
    checkpoint probe 2.0;
    checkpoint probe 3.0;
    Oracle.finalize oracle;
    ( List.map (fun v -> v.Oracle.invariant) (Oracle.violations oracle),
      (Oracle.convergence oracle).tolerated )
  in
  Alcotest.(check (pair (list string) int)) "oracle, no injection"
    ([ "nak-underrun" ], 0) (underrun ~injected:false);
  Alcotest.(check (pair (list string) int)) "oracle, after an injection"
    ([], 1) (underrun ~injected:true);
  let probe = Dlc.Probe.create () in
  let transfer = Oracle.Transfer.create ~name:"transfer" in
  Oracle.Transfer.set_convergence transfer ~k:2;
  Oracle.Transfer.observe transfer probe;
  emit probe 0.5 (Dlc.Probe.Offered { payload = Frame.Payload.of_string "lost" });
  inject probe 1.0;
  checkpoint probe 2.0;
  checkpoint probe 3.0;
  Oracle.Transfer.finalize transfer;
  Alcotest.(check (list string)) "transfer, after an injection"
    [ "transfer-loss" ]
    (List.map (fun v -> v.Oracle.invariant) (Oracle.Transfer.violations transfer))

let suite =
  [
    Alcotest.test_case "kill checkpoints 3-5 -> enforced recovery" `Quick
      test_kill_checkpoints_3_5;
    Alcotest.test_case "frame 17 loses its first two copies" `Quick
      test_frame_17_first_two_copies;
    Alcotest.test_case "lost Check-Point-NAKs" `Quick test_lost_checkpoint_naks;
    Alcotest.test_case "payload-corrupt run of five" `Quick
      test_payload_corrupt_run;
    Alcotest.test_case "header-corrupt (unidentifiable) frames" `Quick
      test_header_corrupt_frames;
    Alcotest.test_case "Request-NAK lost during recovery" `Quick
      test_request_nak_lost_during_recovery;
    Alcotest.test_case "Enforced-NAK lost during recovery" `Quick
      test_enforced_nak_lost_during_recovery;
    Alcotest.test_case "bidirectional burst window" `Quick
      test_burst_window_both_directions;
    Alcotest.test_case "seeded adversary" `Quick test_seeded_adversary;
    Alcotest.test_case "HDLC-SR: frame + SREJ loss" `Quick test_hdlc_sr_faults;
    Alcotest.test_case "GBN-HDLC: drop + corrupt" `Quick test_hdlc_gbn_faults;
    Alcotest.test_case "HDLC seqnum wraparound (3-bit space)" `Quick
      test_hdlc_seqnum_wraparound;
    Alcotest.test_case "NBDT: frame + report loss" `Quick test_nbdt_faults;
    Alcotest.test_case "broken c_depth=0 trips no-loss" `Quick
      test_broken_c_depth0_trips_no_loss;
    QCheck_alcotest.to_alcotest prop_safety_under_any_fault_script;
    Alcotest.test_case "violation counts past the list's cap" `Quick
      test_counts_past_the_cap;
    Alcotest.test_case "one suspect window in both checkers" `Quick
      test_one_suspect_window;
    Alcotest.test_case "k = 0 opens no window in either checker" `Quick
      test_k0_opens_nothing;
    Alcotest.test_case "finalize-time rule of each checker" `Quick
      test_finalize_time_rule;
  ]
