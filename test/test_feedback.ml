(* Tests for the Byzantine-feedback hardening layer: lie-script parsing,
   the no-false-positive guard property (honest feedback is never
   quarantined, for any variant, seed or channel noise), per-lie-class
   detection and recovery, adversary RNG-stream compatibility, the
   golden lying-feedback trace, and E24 soak determinism across worker
   counts. *)

module E24 = Experiments.E24_feedback
module F = Channel.Fault

(* --- lie-script parsing -------------------------------------------------- *)

let same_spec msg input expected =
  match Proto_harness.from_file F.load input with
  | Error e -> Alcotest.failf "%s: unexpected parse error: %s" msg e
  | Ok spec ->
      Alcotest.(check string)
        msg
        (F.describe (F.compile expected))
        (F.describe (F.compile spec))

let test_lie_script_parse () =
  same_spec "forge rule" "forge-ack cp-nak copies=1"
    (F.Rules [ F.rule ~copies:1 F.Cp_nak F.Forge_ack ]);
  same_spec "rewrite with delta and window"
    "rewrite-cp-seq control-nth=6 delta=-3 from=0.001 until=0.2"
    (F.Rules
       [
         F.rule ~window:(0.001, 0.2) (F.Control_nth 6)
           (F.Rewrite_cp_seq { delta = -3 });
       ]);
  same_spec "stale replay default back"
    "# lie script\ninject-stale-cp any-control\n"
    (F.Rules [ F.rule F.Any_control (F.Inject_stale_cp { back = 1 }) ]);
  same_spec "blackout sugar" "blackout from=0.005 until=0.015"
    (F.Rules [ F.blackout ~from:0.005 ~until:0.015 ]);
  same_spec "lying adversary"
    "adversary seed=9 p-control=0.01 p-lie=0.05 \
     lies=forge-ack,rewrite-cp-seq,inject-stale-cp"
    (F.adversary ~seed:9 ~p_control:0.01 ~p_lie:0.05
       ~lies:
         [
           F.Forge_ack;
           F.Rewrite_cp_seq { delta = -1 };
           F.Inject_stale_cp { back = 1 };
         ]
       ())

let test_lie_script_rejects () =
  (match Proto_harness.from_file F.load "forge-ack cp-nak copies=zero" with
  | Ok _ -> Alcotest.fail "malformed copies accepted"
  | Error _ -> ());
  (match Proto_harness.from_file F.load "blackout from=0.01" with
  | Ok _ -> Alcotest.fail "blackout without until accepted"
  | Error _ -> ());
  match Proto_harness.from_file F.load "adversary seed=1 p-lie=0.5 lies=drop" with
  | Ok _ -> Alcotest.fail "drop accepted as a lie class"
  | Error _ -> ()

(* --- no false positives on honest feedback ------------------------------- *)

(* The guard's entire value rests on transparency under honest traffic:
   across variants, seeds and channel noise (including reverse-channel
   corruption, which is CRC-detectable and must pass through untouched),
   a fault-free-feedback run may never quarantine a checkpoint, force a
   resync, or change what gets delivered. *)
let guard_cfg = Dlc.Guard.default_config

let honest_run ~variant ~seed ~ber =
  let cber = ber /. 10. in
  let n = 80 in
  let t, probe =
    match variant with
    | 0 ->
        let params =
          { Lams_dlc.Params.default with Lams_dlc.Params.guard = Some guard_cfg }
        in
        let t, s = Proto_harness.lams ~seed ~ber ~cber ~params () in
        (t, Lams_dlc.Session.probe s)
    | 1 ->
        let params =
          { Hdlc.Params.default with Hdlc.Params.guard = Some guard_cfg }
        in
        let t, s = Proto_harness.hdlc ~seed ~ber ~cber ~params () in
        (t, Hdlc.Session.probe s)
    | _ ->
        let params =
          { Nbdt.Params.default with Nbdt.Params.guard = Some guard_cfg }
        in
        let t, s = Proto_harness.nbdt ~seed ~ber ~cber ~params () in
        (t, Nbdt.Session.probe s)
  in
  (* the guard reports each quarantine and forced resync on the probe;
     it can only fail after one *)
  let alarms = ref 0 in
  Dlc.Probe.subscribe probe (fun ~now:_ -> function
    | Dlc.Probe.Cp_quarantined _ | Dlc.Probe.Resync_forced _ -> incr alarms
    | _ -> ());
  Proto_harness.offer_all t n;
  Proto_harness.run_to_completion t ~horizon:120.;
  !alarms = 0 && Hashtbl.length t.Proto_harness.delivered = n

let prop_no_false_positives =
  QCheck2.Test.make
    ~name:"honest feedback is never quarantined (any variant, seed, noise)"
    ~count:24
    QCheck2.Gen.(
      triple (int_range 0 10_000) (int_range 0 2) (int_range 0 20))
    (fun (seed, variant, ber_scale) ->
      honest_run ~variant ~seed ~ber:(float_of_int ber_scale *. 1e-5))

(* Cases at which the property once failed, all LAMS-DLC: a lost frame
   went out again under a new number from the sender's own coverage
   scan, the receiver later NAKed the old number, and the guard took
   that honest NAK for a lying release until it declared failure. *)
let test_sender_requeue_not_quarantined () =
  List.iter
    (fun (seed, ber_scale) ->
      if not (honest_run ~variant:0 ~seed ~ber:(float_of_int ber_scale *. 1e-5))
      then
        Alcotest.failf "LAMS-DLC seed %d, ber %de-5: honest feedback quarantined"
          seed ber_scale)
    [ (7, 6); (54, 14); (337, 20); (4362, 6); (4444, 13); (6857, 16) ]

(* --- per-lie-class detection and recovery -------------------------------- *)

(* A metric of a run, failing on a missing name. *)
let m (run : Experiments.Scenario.checked) = Experiments.Scenario.metric run.metrics

let exact = Alcotest.float 0.

let test_forge_unguarded_loses_data () =
  (* the bare paper protocol believes the forged ACK: the sender
     releases frames the receiver never got, the receiver's later NAKs
     reference freed buffer slots, and the stream silently loses data —
     exactly the failure mode the oracle's wrongful-release check
     names *)
  List.iter
    (fun variant ->
      let run = E24.run_one ~guard_on:false ~seed:11 variant E24.Forge in
      Alcotest.(check bool) "lie told" true (m run "lies" >= 1.);
      Alcotest.(check bool) "wrongful releases detected" true
        (m run "wrongful_releases" >= 1.);
      Alcotest.check exact "stream incomplete" 0. (m run "completed"))
    [ E24.Lams; E24.Nbdt_bulk ]

let test_forge_guarded_converges () =
  List.iter
    (fun variant ->
      let run = E24.run_one ~guard_on:true ~seed:11 variant E24.Forge in
      Alcotest.check exact "one quarantine" 1. (m run "quarantines");
      Alcotest.check exact "one forced resync" 1. (m run "resyncs");
      Alcotest.check exact "no wrongful release" 0. (m run "wrongful_releases");
      Alcotest.check exact "stream completed" 1. (m run "completed");
      Alcotest.check exact "episode resolved" 1. (m run "resolved_episodes");
      let ttr = m run "time_to_resync" in
      Alcotest.(check bool) "bounded time-to-resync" true (ttr > 0. && ttr < 0.05))
    [ E24.Lams; E24.Nbdt_bulk ]

let test_rewrite_and_stale_guarded () =
  List.iter
    (fun (variant, lie) ->
      let run = E24.run_one ~guard_on:true ~seed:11 variant lie in
      Alcotest.(check bool) "quarantined" true (m run "quarantines" >= 1.);
      Alcotest.check exact "no wrongful release" 0. (m run "wrongful_releases");
      Alcotest.check exact "stream completed" 1. (m run "completed"))
    [
      (E24.Lams, E24.Rewrite);
      (E24.Lams, E24.Stale);
      (E24.Nbdt_bulk, E24.Rewrite);
      (E24.Nbdt_bulk, E24.Stale);
      (E24.Sr_hdlc, E24.Stale);
    ]

let test_blackout_safe () =
  (* total reverse silence is degradation, not corruption: no wrongful
     release ever, and the stream still completes through the variants'
     own silence recovery. The goodput floor through the window, pinned
     at this seed: NBDT's forward path keeps delivering, while LAMS-DLC
     and SR-HDLC, their feedback silent, deliver nothing in [9, 15) ms. *)
  List.iter
    (fun (variant, floor) ->
      List.iter
        (fun guard_on ->
          let run = E24.run_one ~guard_on ~seed:11 variant E24.Blackout in
          Alcotest.check exact "no wrongful release" 0.
            (m run "wrongful_releases");
          Alcotest.check exact "stream completed" 1. (m run "completed");
          Alcotest.check exact "goodput floor, bit/s" floor
            (m run "goodput_floor"))
        [ false; true ])
    [ (E24.Lams, 0.); (E24.Sr_hdlc, 0.); (E24.Nbdt_bulk, 49_152_000.) ]

let test_fault_free_rows_never_quarantine () =
  List.iter
    (fun variant ->
      let run = E24.run_one ~guard_on:true ~seed:11 variant E24.No_lie in
      Alcotest.check exact "zero quarantines" 0. (m run "quarantines");
      Alcotest.check exact "zero resyncs" 0. (m run "resyncs");
      Alcotest.check exact "completed" 1. (m run "completed"))
    [ E24.Lams; E24.Sr_hdlc; E24.Nbdt_bulk ]

let p_frame seq =
  Frame.Wire.Data (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string "p"))

(* --- adversary RNG-stream compatibility ---------------------------------- *)

let test_adversary_stream_compat () =
  (* the pinned draw order (drop, payload-corrupt, header-corrupt, lie)
     skips each draw entirely while its probability is 0, so switching
     on control-frame lies must not perturb the I-frame fate stream of
     an otherwise identical adversary *)
  let decisions spec =
    List.map
      (function
        | Channel.Link.Pass -> 'p'
        | Channel.Link.Drop -> 'd'
        | Channel.Link.Corrupt_payload -> 'c'
        | Channel.Link.Corrupt_header -> 'h'
        | Channel.Link.Replace _ -> 'r')
      (Proto_harness.fault_decisions (F.compile spec) (List.init 300 p_frame))
  in
  let legacy = F.adversary ~seed:42 ~p_iframe:0.1 () in
  let lying =
    F.adversary ~seed:42 ~p_iframe:0.1 ~p_lie:0.9 ~lies:[ F.Forge_ack ] ()
  in
  Alcotest.(check (list char))
    "I-frame fates unchanged by enabling control-frame lies"
    (decisions legacy) (decisions lying);
  let corrupting =
    match
      Proto_harness.from_file F.load
        "adversary seed=42 p-iframe=0.1 p-corrupt-payload=0.2"
    with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "corrupting adversary rejected: %s" e
  in
  Alcotest.(check bool)
    "payload corruption does perturb the stream (sanity)" true
    (decisions legacy <> decisions corrupting)

(* --- golden lying-feedback trace ----------------------------------------- *)

(* regenerated from the golden registry: `feedback run lams --lie
   forge-ack --seed 7 --frames 200`, whose outcome checks pin the whole
   ladder (one lie, one quarantine, one forced resync, no wrongful
   release, completed) *)
let test_golden_trace () =
  let trace =
    List.assoc "feedback-golden.jsonl"
      (Test_golden.check_entry "feedback-golden.jsonl")
  in
  Alcotest.(check bool) "trace records the quarantine" true
    (Astring.String.is_infix ~affix:"cp-quarantined" trace);
  Alcotest.(check bool) "trace records the forced resync" true
    (Astring.String.is_infix ~affix:"resync-forced" trace)

(* --- soak determinism across worker counts ------------------------------ *)

let test_soak_jobs_determinism () =
  let json report =
    Bench_report.Json.to_string ~indent:2
      (Bench_report.Matrix_report.to_json ~with_meta:false report)
  in
  let soak jobs =
    Experiments.Soak.(run ~jobs ~root_seed:7 ~schedules:3 feedback)
  in
  let seq = soak 1 and par = soak 2 in
  Alcotest.(check string)
    "parallel soak is byte-identical to sequential" (json seq) (json par);
  Alcotest.(check (list string))
    "no wrongful release, and every schedule completes or declares failure"
    [] Experiments.Soak.(unsafe_points feedback seq)

let suite =
  [
    Alcotest.test_case "lie script: parse and describe" `Quick
      test_lie_script_parse;
    Alcotest.test_case "lie script: malformed inputs rejected" `Quick
      test_lie_script_rejects;
    QCheck_alcotest.to_alcotest prop_no_false_positives;
    Alcotest.test_case "forge-ack unguarded: silent data loss" `Quick
      test_forge_unguarded_loses_data;
    Alcotest.test_case "forge-ack guarded: quarantine, resync, converge"
      `Quick test_forge_guarded_converges;
    Alcotest.test_case "rewrite and stale-replay guarded" `Quick
      test_rewrite_and_stale_guarded;
    Alcotest.test_case "blackout: degradation without wrongful release"
      `Quick test_blackout_safe;
    Alcotest.test_case "lie-free rows never quarantine" `Quick
      test_fault_free_rows_never_quarantine;
    Alcotest.test_case "adversary RNG-stream compatibility" `Quick
      test_adversary_stream_compat;
    Alcotest.test_case "golden lying-feedback trace" `Quick test_golden_trace;
    Alcotest.test_case "soak: jobs-count determinism" `Quick
      test_soak_jobs_determinism;
    Alcotest.test_case "sender-side requeues are not quarantined" `Quick
      test_sender_requeue_not_quarantined;
  ]
