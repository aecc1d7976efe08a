(* The soaks' safety rules (Experiments.Soak). Over synthetic matrix
   points each rule passes a clean point and flags a violating one and
   one that lacks a metric the rule reads: the gates fail closed, so a
   renamed metric cannot silently turn a soak green. Over real runs each
   rule reads the metric vector its `X run` outcome emits. *)

module S = Experiments.Soak
module MR = Bench_report.Matrix_report

let stat v =
  { MR.count = 1; mean = v; stddev = 0.; ci95 = 0.; min = v; max = v }

let point label metrics =
  { MR.label; metrics = List.map (fun (k, v) -> (k, stat v)) metrics }

let unsafe h points =
  S.unsafe_points h
    {
      MR.schema_version = MR.schema_version;
      root_seed = 1;
      replicates = 1;
      experiments = [ { MR.id = "soak"; name = "synthetic"; points } ];
      meta = None;
    }

let test_oracle_gate h () =
  Alcotest.(check (list string))
    "the violating point and the one without oracle_violations are unsafe"
    [ "violating"; "missing" ]
    (unsafe h
       [
         point "clean" [ ("delivered", 10.); ("oracle_violations", 0.) ];
         point "violating" [ ("delivered", 10.); ("oracle_violations", 2.) ];
         point "missing" [ ("delivered", 10.) ];
       ])

let test_feedback_gate () =
  let p label ~wrongful ~completed ~declared =
    point label
      [
        ("wrongful_releases", wrongful);
        ("completed", completed);
        ("failure_declared", declared);
      ]
  in
  let without k label =
    point label
      (List.remove_assoc k
         [
           ("wrongful_releases", 0.);
           ("completed", 1.);
           ("failure_declared", 0.);
         ])
  in
  Alcotest.(check (list string))
    "wrongful releases, undeclared stalls and missing metrics are unsafe"
    [
      "wrongful";
      "wrongful-declared";
      "stalled";
      "no-wrongful_releases";
      "no-completed";
      "no-failure_declared";
    ]
    (unsafe S.feedback
       [
         p "clean" ~wrongful:0. ~completed:1. ~declared:0.;
         p "wrongful" ~wrongful:3. ~completed:1. ~declared:0.;
         p "wrongful-declared" ~wrongful:1. ~completed:0. ~declared:1.;
         p "stalled" ~wrongful:0. ~completed:0. ~declared:0.;
         p "declared" ~wrongful:0. ~completed:0. ~declared:1.;
         without "wrongful_releases" "no-wrongful_releases";
         without "completed" "no-completed";
         without "failure_declared" "no-failure_declared";
       ])

let test_rules_read_run_outcomes () =
  let module E21 = Experiments.E21_handover in
  let module E22 = Experiments.E22_corruption in
  let module E24 = Experiments.E24_feedback in
  Alcotest.(check bool) "a clean handover transfer is safe" true
    (S.handover.safe (fst (E21.transfer ~seed:11 E21.default_setup)).metrics);
  Alcotest.(check bool) "a converging corruption run is safe" true
    (S.corrupt.safe
       (E22.run_one ~seed:11 E22.Lams
          (E22.spec_of (List.assoc "nak-truncate" E22.classes)))
         .metrics);
  Alcotest.(check bool) "a stale carryover that converges is safe" true
    (S.corrupt.safe (fst (E22.run_handover ~seed:11 E22.carryover_spec)).metrics);
  let forge guard_on =
    S.feedback.safe (E24.run_one ~guard_on ~seed:11 E24.Lams E24.Forge).metrics
  in
  Alcotest.(check bool) "a guarded forged ACK is safe" true (forge true);
  Alcotest.(check bool) "an unguarded forged ACK is unsafe" false (forge false)

let suite =
  [
    Alcotest.test_case "handover gate: clean, violating, missing" `Quick
      (test_oracle_gate S.handover);
    Alcotest.test_case "corrupt gate: clean, violating, missing" `Quick
      (test_oracle_gate S.corrupt);
    Alcotest.test_case "feedback gate: wrongful, stalled, declared, missing"
      `Quick test_feedback_gate;
    Alcotest.test_case "each rule reads its run's outcome metrics" `Quick
      test_rules_read_run_outcomes;
  ]
