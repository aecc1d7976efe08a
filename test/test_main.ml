(* Aggregate test runner: one alcotest section per module under test. *)

let () =
  Alcotest.run "lams-dlc-repro"
    [
      ("rng", Test_rng.suite);
      ("event-queue", Test_event_queue.suite);
      ("engine", Test_engine.suite);
      ("stats", Test_stats.suite);
      ("seqnum", Test_seqnum.suite);
      ("crc", Test_crc.suite);
      ("codec", Test_codec.suite);
      ("payload", Test_payload.suite);
      ("fec", Test_fec.suite);
      ("reed-solomon", Test_reed_solomon.suite);
      ("channel", Test_channel.suite);
      ("channel-model", Test_channel_model.suite);
      ("orbit", Test_orbit.suite);
      ("dlc-metrics", Test_dlc.suite);
      ("lams-dlc", Test_lams_dlc.suite);
      ("lams-receiver-unit", Test_lams_receiver_unit.suite);
      ("lams-sender-unit", Test_lams_sender_unit.suite);
      ("hdlc", Test_hdlc.suite);
      ("hdlc-receiver-unit", Test_hdlc_receiver_unit.suite);
      ("hdlc-sender-unit", Test_hdlc_sender_unit.suite);
      ("nbdt", Test_nbdt.suite);
      ("nbdt-receiver-unit", Test_nbdt_receiver_unit.suite);
      ("session", Test_session.suite);
      ("analysis", Test_analysis.suite);
      ("analysis-golden", Test_analysis_golden.suite);
      ("oracle", Test_oracle.suite);
      ("netstack", Test_netstack.suite);
      ("workload", Test_workload.suite);
      ("integration", Test_integration.suite);
      ("bench-report", Test_bench_report.suite);
      ("runner", Test_runner.suite);
      ("trace", Test_trace.suite);
      ("matrix-soak", Test_matrix_soak.suite);
      ("handover", Test_handover.suite);
      ("corrupt", Test_corrupt.suite);
      ("corrupt-soak", Test_corrupt_soak.suite);
      ("feedback", Test_feedback.suite);
      ("soak", Test_soak.suite);
      ("golden", Test_golden.suite);
      ("alloc", Test_alloc.suite);
    ]
