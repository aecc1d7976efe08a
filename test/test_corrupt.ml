(* Tests for the state-corruption subsystem and the convergence-mode
   oracle: script parsing, the mutator surface, per-class recovery paths
   (each corruption class must reconverge — or declare failure — under
   the protocol-matched oracle), the k = 0 tripwire, fault-observer
   composition, the golden corruption trace, and soak determinism across
   worker counts. *)

module E22 = Experiments.E22_corruption
module C = Dlc.Corrupt

(* --- corruption-script parsing ----------------------------------------- *)

let check_spec msg ~expect input =
  match Proto_harness.from_file C.load input with
  | Error e -> Alcotest.failf "%s: unexpected parse error: %s" msg e
  | Ok spec -> Alcotest.(check string) msg expect (C.describe (C.compile spec))

let check_rejected msg input =
  match Proto_harness.from_file C.load input with
  | Ok spec ->
      Alcotest.failf "%s: accepted as %s" msg (C.describe (C.compile spec))
  | Error _ -> ()

let test_script_parse () =
  check_spec "one rule"
    ~expect:"corrupt[at 0.005 nak-truncate]"
    "at 0.005 nak-truncate";
  check_spec "comments, args, copies and period"
    ~expect:
      "corrupt[at 0.004 seq-scramble-recv(delta=3); at 0.009 every 0.002 x2 \
       reverse-replay(copies=1,back=1)]"
    "# a comment\n\
     at 0.004 seq-scramble-recv delta=3\n\
     \n\
     at 0.009 every 0.002 copies 2 reverse-replay back=1\n";
  check_spec "carryover rule"
    ~expect:"corrupt[at 0 carryover-stale(drop=1,flip=true)]"
    "at 0. carryover-stale drop=1 flip=true";
  check_spec "adversary line"
    ~expect:
      "corrupt-adversary[seed=9 in [0.002,0.05) gap=0.008 \
       classes=nak-truncate,buffer-duplicate]"
    "adversary seed=9 start=0.002 stop=0.05 mean-gap=0.008 \
     classes=nak-truncate,buffer-duplicate"

let test_script_rejects () =
  check_rejected "unknown class" "at 0.005 frobnicate";
  check_rejected "malformed copies" "at 0.009 copies=2 reverse-replay";
  check_rejected "adversary missing seed"
    "adversary start=0. stop=0.1 mean-gap=0.01 classes=nak-truncate";
  check_rejected "adversary mixed with rules"
    "at 0.005 nak-truncate\n\
     adversary seed=1 start=0. stop=0.1 mean-gap=0.01 classes=nak-truncate"

(* Fault and corruption scripts read their lines through one reader
   (Channel.Script); its error texts reach the CLI verbatim. *)
let test_script_error_texts () =
  let errors parse inputs =
    List.map
      (fun input -> match parse input with Ok _ -> "accepted" | Error e -> e)
      inputs
  in
  let fault_adversary = "adversary seed=1 p-iframe=0.1"
  and corrupt_adversary =
    "adversary seed=1 start=0. stop=0.1 mean-gap=0.01 classes=nak-truncate"
  in
  Alcotest.(check (list string))
    "fault script"
    [
      "fault script: empty script";
      "line 2: duplicate adversary line";
      "fault script: cannot mix adversary with rule lines";
      "line 3: i-seq: bad integer \"x\"";
    ]
    (errors (Proto_harness.from_file Channel.Fault.load)
       [
         "";
         fault_adversary ^ "\n" ^ fault_adversary;
         "drop i-seq=1\n" ^ fault_adversary;
         "# head\ndrop i-seq=1\ndrop i-seq=x";
       ]);
  Alcotest.(check (list string))
    "corrupt script"
    [
      "corrupt script: empty script";
      "line 2: duplicate adversary line";
      "corrupt script: cannot mix adversary with rule lines";
      "line 3: delta: bad integer \"x\"";
    ]
    (errors (Proto_harness.from_file C.load)
       [
         "";
         corrupt_adversary ^ "\n" ^ corrupt_adversary;
         "at 0.001 nak-truncate\n" ^ corrupt_adversary;
         "at 0.001 nak-truncate\n\nat 0.002 seq-scramble-send delta=x";
       ])

(* --- the mutator surface ------------------------------------------------ *)

let fresh_lams () =
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:150_000. ~data_rate_bps:100e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:0. ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:0. ())
  in
  let session =
    Lams_dlc.Session.create engine ~params:Lams_dlc.Params.default ~duplex
  in
  Lams_dlc.Session.corrupt_surface session

let test_surface_idle_session () =
  (* before any traffic the injection points that need captured state or
     buffered frames must refuse (None), not fabricate state *)
  let s = fresh_lams () in
  Alcotest.(check (option string))
    "reverse replay with an empty ring refuses" None
    (s.C.replay_reverse ~copies:2 ~back:1);
  Alcotest.(check (option string))
    "duplicating an empty send buffer refuses" None
    (s.C.duplicate_buffer_entry ());
  Alcotest.(check bool)
    "send-seq scramble applies on a live sender" true
    (s.C.scramble_send_seq ~delta:5 <> None);
  Alcotest.(check bool)
    "recv frontier scramble applies" true
    (s.C.scramble_recv_seq ~delta:3 <> None)

(* --- per-class recovery paths ------------------------------------------- *)

(* Each corruption class, injected once mid-stream with canonical
   arguments, must leave the oracle clean: anomalies confined to the
   suspect window, invariants re-established within k checkpoints (or an
   explicit failure declaration — which none of the canonical classes
   needs on this geometry). Seed-pinned, so the per-class expectations
   below are exact. *)
let recovery ?(variant = E22.Lams) ?(seed = 11) ?(completed = true) name =
  let klass = List.assoc name E22.classes in
  let o = E22.run_one ~seed variant (E22.spec_of klass) in
  Alcotest.(check int) (name ^ ": injected once") 1 o.E22.injected;
  Alcotest.(check int) (name ^ ": nothing skipped") 0 o.E22.skipped;
  Alcotest.(check bool) (name ^ ": oracle clean") true (o.E22.violations = []);
  Alcotest.(check bool) (name ^ ": not stuck unconverged") false
    o.E22.unconverged;
  Alcotest.(check int) (name ^ ": suspect window closed") 1 o.E22.converged;
  Alcotest.(check bool)
    (name ^ ": stream " ^ (if completed then "completed" else "has casualties"))
    completed o.E22.completed;
  o

let test_recovery_seq_scramble_send () =
  (* the phantom gap is NAKed and resolved without observable anomaly:
     renumbered retransmission fills it like any real loss *)
  let o = recovery "seq-scramble-send" in
  Alcotest.(check int) "no anomalies needed" 0 o.E22.tolerated

let test_recovery_seq_scramble_recv () =
  (* the frontier jump forward silently skips in-flight frames: those
     are casualties in Dolev et al.'s sense — destroyed data is a
     legitimate price of stabilisation, so the stream cannot complete,
     but the oracle must still end clean *)
  let o = recovery ~completed:false "seq-scramble-recv" in
  Alcotest.(check bool) "no failure declaration" false o.E22.declared_failure;
  Alcotest.(check bool) "only the skipped frames are lost" true
    (o.E22.delivered >= 396)

let test_recovery_nak_poison () =
  (* phantom NAKs ask for retransmission of delivered frames; the
     duplicates are absorbed, cumulation stays legal *)
  let o = recovery "nak-poison" in
  Alcotest.(check int) "no anomalies needed" 0 o.E22.tolerated

let test_recovery_nak_truncate () =
  (* the erased ledger under-advertises pending losses: exactly the
     nak-underrun post-mortem anomaly, attributed to the injection *)
  let o = recovery "nak-truncate" in
  Alcotest.(check int) "one tolerated anomaly" 1 o.E22.tolerated

let test_recovery_buffer_duplicate () =
  (* the duplicated entry arrives as a duplicate delivery inside the
     window; convergence time is the anomaly's distance from injection *)
  let o = recovery "buffer-duplicate" in
  Alcotest.(check bool) "anomaly observed in window" true
    (o.E22.tolerated >= 1);
  Alcotest.(check bool) "positive time-to-convergence" true
    (o.E22.time_to_convergence > 0.)

let test_recovery_reverse_replay () =
  (* stale checkpoints regress cp_seq and next_expected on the wire —
     multiple tolerated anomalies, all inside the window *)
  let o = recovery "reverse-replay" in
  Alcotest.(check bool) "replayed frames are anomalous" true
    (o.E22.tolerated >= 2)

let test_recovery_other_variants () =
  (* the same contract holds for the comparison protocols; the recv
     frontier jump destroys in-flight frames on every variant *)
  List.iter
    (fun (variant, completed, name) ->
      ignore (recovery ~variant ~completed name : E22.outcome))
    [
      (E22.Sr_hdlc, true, "seq-scramble-send");
      (E22.Sr_hdlc, true, "reverse-replay");
      (E22.Nbdt_bulk, false, "seq-scramble-recv");
      (E22.Nbdt_bulk, true, "nak-poison");
    ]

(* --- the k = 0 tripwire ------------------------------------------------- *)

let test_tripwire_k0 () =
  (* with a zero checkpoint budget no suspect window ever opens: the
     same injection whose anomalies are tolerated at k = 8 must trip the
     oracle as real violations *)
  let klass = List.assoc "reverse-replay" E22.classes in
  let o = E22.run_one ~k:0 ~seed:11 E22.Lams (E22.spec_of klass) in
  Alcotest.(check int) "injected once" 1 o.E22.injected;
  Alcotest.(check bool) "oracle trips" true (List.length o.E22.violations >= 2);
  Alcotest.(check int) "nothing tolerated" 0 o.E22.tolerated;
  Alcotest.(check int) "no window, no convergence" 0 o.E22.converged

(* --- fault observers compose -------------------------------------------- *)

let test_fault_observers_compose () =
  let fault = Channel.Fault.of_rules [ Channel.Fault.rule Any_iframe Drop ] in
  let calls = ref [] in
  Channel.Fault.set_observer fault (fun ~now:_ _ _ -> calls := 1 :: !calls);
  Channel.Fault.set_observer fault (fun ~now:_ _ _ -> calls := 2 :: !calls);
  let payload = Frame.Payload.of_string "p" in
  let frame = Frame.Wire.Data (Frame.Iframe.create ~seq:0 ~payload) in
  (match Proto_harness.fault_decisions fault [ frame ] with
  | [ Channel.Link.Drop ] -> ()
  | _ -> Alcotest.fail "rule did not drop");
  Alcotest.(check (list int))
    "both observers fired, in registration order" [ 1; 2 ] (List.rev !calls)

(* A schedule that outlives its session stops with it. The 400-frame
   stream is done well before 0.1 s, so none of the ten injections
   fires, neither after the completion stop nor after the horizon, and
   none counts as skipped. *)
let test_schedule_stops_with_session () =
  let spec =
    match
      Proto_harness.from_file C.load "at 0.1 every 0.5 copies 10 nak-truncate"
    with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun variant ->
      let o = E22.run_one ~seed:11 variant spec in
      let tag = E22.variant_tag variant in
      Alcotest.(check bool) (tag ^ ": completed") true o.E22.completed;
      Alcotest.(check (pair int int))
        (tag ^ ": injected, skipped") (0, 0) (o.E22.injected, o.E22.skipped))
    [ E22.Lams; E22.Sr_hdlc ]

(* A transfer's schedule stops with it too: the injections due after the
   0.15 s horizon neither fire nor count as skipped during the drain. *)
let test_schedule_stops_with_transfer () =
  let spec =
    match
      Proto_harness.from_file C.load "at 0.2 every 0.1 copies 10 nak-truncate"
    with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let o = (E22.run_handover ~seed:11 spec).E22.outcome in
  Alcotest.(check (pair int int))
    "handover: injected, skipped" (0, 0) (o.E22.injected, o.E22.skipped)

(* --- handover carryover corruption -------------------------------------- *)

let test_handover_carryover () =
  let o = (E22.run_handover ~seed:11 E22.carryover_spec).E22.outcome in
  Alcotest.(check int) "snapshot corrupted once" 1 o.E22.injected;
  Alcotest.(check bool) "transfer oracle clean" true (o.E22.violations = []);
  Alcotest.(check bool) "reconverged" false o.E22.unconverged;
  Alcotest.(check int) "all messages reassembled" 10 o.E22.delivered;
  Alcotest.(check bool) "anomalies stayed in the window" true
    (o.E22.tolerated > 0)

(* The exact metrics and trace of the canonical stale-carryover run at
   seed 11, floats compared by their bits. *)
let test_handover_pinned () =
  let capture = Trace.Capture.create ~name:"e22-handover" () in
  let o =
    E22.run_handover ~recorder:(Trace.Capture.recorder capture) ~seed:11
      E22.carryover_spec
  in
  let bits = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) in
  Alcotest.(check (list (pair string int64)))
    "handover metrics"
    (bits
       [
         ("injected", 1.);
         ("skipped", 0.);
         ("converged_windows", 1.);
         ("time_to_convergence", 0x1.1653b5866392ap-6);
         ("tolerated", 107.);
         ("declared_failure", 0.);
         ("unconverged", 0.);
         ("completed", 1.);
         ("delivered", 10.);
         ("oracle_violations", 0.);
       ])
    (bits (E22.handover_metrics o));
  Alcotest.(check string) "trace MD5" "d64857dee87017b74a66bae2b83ec470"
    (Digest.to_hex
       (Digest.string (List.assoc "t" (Trace.Capture.outputs capture ~path:"t"))))

(* --- golden corruption trace -------------------------------------------- *)

(* regenerated from the golden registry: `corrupt run lams --class
   reverse-replay --seed 7 --frames 200`, which must converge cleanly *)
let test_golden_trace () =
  ignore (Test_golden.check_entry "corrupt-golden.jsonl")

(* --- soak determinism across worker counts ------------------------------ *)

let test_soak_jobs_determinism () =
  let json report =
    Bench_report.Json.to_string ~indent:2
      (Bench_report.Matrix_report.to_json ~with_meta:false report)
  in
  let soak jobs =
    Experiments.Soak.(run ~jobs ~root_seed:7 ~schedules:3 corrupt)
  in
  let seq = soak 1 and par = soak 2 in
  Alcotest.(check string)
    "parallel soak is byte-identical to sequential" (json seq) (json par);
  Alcotest.(check (list string))
    "no schedule has oracle violations" []
    Experiments.Soak.(unsafe_points corrupt seq)

let suite =
  [
    Alcotest.test_case "script: parse and describe" `Quick test_script_parse;
    Alcotest.test_case "script: malformed inputs rejected" `Quick
      test_script_rejects;
    Alcotest.test_case "script: error texts of both formats" `Quick
      test_script_error_texts;
    Alcotest.test_case "surface: idle-session refusals" `Quick
      test_surface_idle_session;
    Alcotest.test_case "recovery: seq-scramble-send" `Quick
      test_recovery_seq_scramble_send;
    Alcotest.test_case "recovery: seq-scramble-recv" `Quick
      test_recovery_seq_scramble_recv;
    Alcotest.test_case "recovery: nak-poison" `Quick test_recovery_nak_poison;
    Alcotest.test_case "recovery: nak-truncate" `Quick
      test_recovery_nak_truncate;
    Alcotest.test_case "recovery: buffer-duplicate" `Quick
      test_recovery_buffer_duplicate;
    Alcotest.test_case "recovery: reverse-replay" `Quick
      test_recovery_reverse_replay;
    Alcotest.test_case "recovery: hdlc and nbdt variants" `Quick
      test_recovery_other_variants;
    Alcotest.test_case "tripwire: k = 0 turns anomalies into violations"
      `Quick test_tripwire_k0;
    Alcotest.test_case "fault observers compose" `Quick
      test_fault_observers_compose;
    Alcotest.test_case "schedule stops with its session" `Quick
      test_schedule_stops_with_session;
    Alcotest.test_case "schedule stops with its transfer" `Quick
      test_schedule_stops_with_transfer;
    Alcotest.test_case "handover: stale carryover converges" `Quick
      test_handover_carryover;
    Alcotest.test_case "golden corruption trace" `Quick test_golden_trace;
    Alcotest.test_case "soak: jobs-count determinism" `Quick
      test_soak_jobs_determinism;
    Alcotest.test_case "handover: metrics and trace pinned at seed 11" `Quick
      test_handover_pinned;
  ]
