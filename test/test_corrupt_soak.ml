(* QCheck soak: random corruption scripts fired into mid-handover
   transfers. The self-stabilisation contract under fuzzing is
   convergence-or-declared-failure — whatever state the adversary
   scrambles, the cross-handover transfer oracle must end with zero real
   violations (anomalies confined to suspect windows, destroyed
   carryover entries on the casualty ledger, and failure declarations
   are a legitimate outcome). Seed-pinned: the QCheck generator runs
   under a fixed [Random.State] and each generated script derives its
   simulation seed from its own stable description, so every replica of
   this suite exercises the identical runs. *)

module E22 = Experiments.E22_corruption
module C = Dlc.Corrupt

(* Injection times cover the first two contact windows (0–0.025 s and
   0.035–0.060 s) plus the gap between them: corruption lands on live
   traffic, on an idle link, and right around the handover cut. *)
let gen_klass =
  let open QCheck2.Gen in
  oneof
    [
      ( int_range 1 6 >|= fun delta ->
        C.Seq_scramble { side = C.Send; delta } );
      ( int_range 1 4 >|= fun delta ->
        C.Seq_scramble { side = C.Recv; delta } );
      ( int_range 1 4 >|= fun n ->
        C.Nak_poison { seqs = List.init n (fun i -> i + 1) } );
      return C.Nak_truncate;
      return C.Buffer_duplicate;
      ( pair (int_range 0 2) bool >|= fun (drop, flip) ->
        C.Carryover_stale { drop; flip } );
      ( pair (int_range 1 3) (int_range 0 3) >|= fun (copies, back) ->
        C.Reverse_replay { copies; back } );
    ]

let gen_script =
  let open QCheck2.Gen in
  list_size (int_range 1 4)
    (pair (float_range 0.001 0.09) gen_klass)

let spec_of_script rules =
  C.Rules (List.map (fun (at, klass) -> C.rule ~at klass) rules)

let print_script rules =
  C.describe (C.compile (spec_of_script rules))

let prop_converge_or_declare =
  QCheck2.Test.make ~name:"mid-handover corruption: converge or declare"
    ~count:20 ~print:print_script gen_script (fun rules ->
      let spec = spec_of_script rules in
      let seed =
        Sim.Rng.derive_seed ~root:0xE22 [ C.describe (C.compile spec) ]
      in
      let run, _ = E22.run_handover ~seed spec in
      (* convergence or an explicit declaration — but never a real
         oracle violation, and never a window left open at the end *)
      run.Experiments.Scenario.violations = []
      && Experiments.Scenario.metric run.metrics "unconverged" = 0.)

(* The soak's own adversary derivation must be stable: the CI soak's
   byte-equality across --jobs depends on every schedule being a pure
   function of the root seed. *)
let test_soak_spec_derivation () =
  let d root_seed =
    Bench_report.Json.to_string
      (Bench_report.Matrix_report.to_json ~with_meta:false
         (Runner.run ~jobs:1 ~root_seed ~replicates:1
            [ E22.soak_experiment ~schedules:2 ]))
  in
  Alcotest.(check string) "same seed, same schedule" (d 7) (d 7);
  Alcotest.(check bool) "different seeds diverge" true (d 7 <> d 8)

let suite =
  [
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 0x5AB1E; 0xE22 |])
      prop_converge_or_declare;
    Alcotest.test_case "soak schedules derive from the root seed" `Quick
      test_soak_spec_derivation;
  ]
