(* Tests for the lib/trace flight recorder: JSONL schema roundtrip,
   byte-determinism across runs and worker counts, and the
   oracle-violation flight dump. *)

(* --- event / schema roundtrip --------------------------------------- *)

module Json = Bench_report.Json

let p = Frame.Payload.of_string

(* A capture's JSONL stream, as [Capture.write] would publish it. *)
let jsonl capture =
  List.assoc "t.jsonl" (Trace.Capture.outputs capture ~path:"t.jsonl")

(* The trace checker the CLI runs, on a stream written to a file. *)
let validate = Proto_harness.from_file Trace.Schema.validate_file

let sample_events =
  [
    (* payloads kept within the 16-byte label so re-encoding is
       byte-stable; truncation has its own test below *)
    { Trace.Event.i = 0; time = 0.; kind = Probe (Dlc.Probe.Offered { payload = p "frame-000-xyz" }) };
    { Trace.Event.i = 1; time = 1.5e-5; kind = Probe (Dlc.Probe.Tx { seq = 3; payload = p "p"; retx = false }) };
    { Trace.Event.i = 2; time = 2e-5; kind = Probe (Dlc.Probe.Tx { seq = 3; payload = p "p"; retx = true }) };
    { Trace.Event.i = 3; time = 0.25; kind = Probe (Dlc.Probe.Cp_emitted { cp_seq = 4; next_expected = 9; enforced = true; stop_go = false; naks = [ 5; 7 ] }) };
    { Trace.Event.i = 4; time = 0.3; kind = Fault { link = "forward"; action = "drop"; frame = "I seq=5" } };
    { Trace.Event.i = 5; time = 0.5; kind = Violation { invariant = "released-undelivered"; detail = "seq 5" } };
  ]

let test_event_roundtrip () =
  List.iter
    (fun (e : Trace.Event.t) ->
      let line = Trace.Event.to_line e in
      match Trace.Event.of_line line with
      | Error msg -> Alcotest.failf "roundtrip of %s: %s" line msg
      | Ok back ->
          Alcotest.(check int) "index" e.i back.i;
          Alcotest.(check (float 0.)) "time" e.time back.time;
          Alcotest.(check string) "re-encode is stable"
            line (Trace.Event.to_line back))
    sample_events

let decode_offered payload =
  let e =
    { Trace.Event.i = 0; time = 0.; kind = Probe (Dlc.Probe.Offered { payload }) }
  in
  match Trace.Event.of_line (Trace.Event.to_line e) with
  | Error msg -> Alcotest.fail msg
  | Ok { kind = Probe (Dlc.Probe.Offered { payload }); _ } -> payload
  | Ok _ -> Alcotest.fail "kind changed"

let test_event_payload_truncation () =
  let long = p (String.init 100 (fun i -> Char.chr (65 + (i mod 26)))) in
  let back = decode_offered long in
  Alcotest.(check string) "truncated to label"
    ("ABCDEFGHIJKLMNOP" ^ String.make 84 'x')
    (Frame.Payload.to_string back);
  Alcotest.(check int) "length kept" 100 (Frame.Payload.length back);
  (* a default payload's label holds its whole stem: it decodes exactly *)
  let frame = Workload.Arrivals.default_payload ~size:1024 42 in
  Alcotest.(check bool) "default payload decodes whole" true
    (Frame.Payload.equal frame (decode_offered frame));
  let short = p "tiny" in
  Alcotest.(check bool) "short payload decodes whole" true
    (Frame.Payload.equal short (decode_offered short))

let test_schema_accepts_stream () =
  let content =
    String.concat ""
      (List.map (fun e -> Trace.Event.to_line e ^ "\n") sample_events)
  in
  match validate content with
  | Ok n -> Alcotest.(check int) "event count" (List.length sample_events) n
  | Error msg -> Alcotest.fail msg

let test_schema_rejects () =
  let reject what content =
    match validate content with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  reject "non-JSON line" "not json\n";
  reject "missing fields" "{\"i\":0}\n";
  reject "payload label longer than len"
    "{\"i\":0,\"t\":0,\"ev\":\"offered\",\"payload\":\"abcdef\",\"len\":3}\n";
  reject "payload label shorter than 16 bytes of len"
    "{\"i\":0,\"t\":0,\"ev\":\"offered\",\"payload\":\"abc\",\"len\":30}\n";
  let line i = Trace.Event.to_line { (List.hd sample_events) with i } in
  reject "non-increasing index" (line 3 ^ "\n" ^ line 3 ^ "\n");
  reject "decreasing index" (line 3 ^ "\n" ^ line 1 ^ "\n")

(* --- recorder + scenario determinism -------------------------------- *)

let drop5_spec =
  Channel.Fault.(Rules [ rule ~copies:1 (I_nth 5) Drop ])

let traced_run seed =
  (* Small checked scenario with a scripted forward drop; returns the
     full JSONL stream and the recorder. *)
  let capture = Trace.Capture.create ~name:"test" () in
  let recorder = Trace.Capture.recorder capture in
  let cfg =
    {
      Experiments.Scenario.default with
      seed;
      n_frames = 30;
      ber = 0.;
      cframe_ber = 0.;
      horizon = 5.;
    }
  in
  let proto =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
  in
  let _result, violations =
    Experiments.Scenario.run_checked ~faults:drop5_spec ~recorder cfg proto
  in
  (jsonl capture, recorder, violations)

let test_same_seed_same_bytes () =
  let a, ra, va = traced_run 42 and b, rb, vb = traced_run 42 in
  Alcotest.(check string) "byte-identical JSONL" a b;
  Alcotest.(check int) "same event count"
    (Trace.Recorder.events_recorded ra)
    (Trace.Recorder.events_recorded rb);
  Alcotest.(check int) "same violations" (List.length va) (List.length vb);
  Alcotest.(check bool) "stream is non-trivial" true
    (Trace.Recorder.events_recorded ra > 30);
  match validate a with
  | Ok n ->
      Alcotest.(check int) "validates with full count"
        (Trace.Recorder.events_recorded ra) n
  | Error msg -> Alcotest.fail msg

let noisy_run seed =
  (* On a clean channel with a scripted fault the seed changes nothing
     (that is the point of the determinism tests above); to see the seed
     in the trace the channel must be lossy. *)
  let capture = Trace.Capture.create ~name:"noisy" () in
  let cfg =
    { Experiments.Scenario.default with seed; n_frames = 50; horizon = 5. }
  in
  let proto =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
  in
  let _ =
    Experiments.Scenario.run ~recorder:(Trace.Capture.recorder capture) cfg
      proto
  in
  jsonl capture

let test_different_seed_different_bytes () =
  let a = noisy_run 42 and b = noisy_run 43 in
  Alcotest.(check bool) "different seeds differ" false (String.equal a b)

let test_fault_events_recorded () =
  let jsonl, recorder, _ = traced_run 7 in
  Alcotest.(check bool) "fault hit recorded" true
    (let metrics = Trace.Metrics.to_json (Trace.Recorder.metrics recorder) in
     match Json.member "count_fault" metrics with
     | Some n -> Json.to_float n >= Some 1.
     | None -> false);
  Alcotest.(check bool) "fault line present" true
    (Astring.String.is_infix ~affix:"\"ev\":\"fault\"" jsonl)

(* --- flight dump on oracle violation -------------------------------- *)

let test_flight_dump_contains_offender () =
  let { Experiments.Disaster.recorder; violations } =
    Experiments.Disaster.run ()
  in
  Alcotest.(check bool) "at least one violation" true (violations <> []);
  match Trace.Recorder.flight recorder with
  | None -> Alcotest.fail "no flight dump frozen"
  | Some events ->
      let last = List.nth events (List.length events - 1) in
      (match last.Trace.Event.kind with
      | Violation { invariant; _ } ->
          Alcotest.(check string) "dump ends with the violation"
            "released-undelivered" invariant
      | _ -> Alcotest.fail "flight dump does not end with a violation");
      (* The disaster drops frame 5's only copy; the fatal release of
         that undelivered payload must still be in the ring. *)
      let released_5 =
        List.exists
          (fun (e : Trace.Event.t) ->
            match e.kind with
            | Probe (Dlc.Probe.Released { seq = 5; _ }) -> true
            | _ -> false)
          events
      in
      Alcotest.(check bool) "release of dropped frame in dump" true
        released_5;
      let fault_hit =
        List.exists
          (fun (e : Trace.Event.t) ->
            match e.kind with
            | Fault { action = "drop"; _ } -> true
            | _ -> false)
          events
      in
      Alcotest.(check bool) "fault hit in dump" true fault_hit;
      (* The frozen dump itself must be valid JSONL. *)
      (match Trace.Recorder.flight_jsonl recorder with
      | None -> Alcotest.fail "no flight jsonl"
      | Some content -> (
          match validate content with
          | Ok n -> Alcotest.(check int) "dump validates" (List.length events) n
          | Error msg -> Alcotest.fail msg))

let test_flight_freezes_at_first_violation () =
  let { Experiments.Disaster.recorder; violations = _ } =
    Experiments.Disaster.run ~frames:40 ()
  in
  match Trace.Recorder.flight recorder with
  | None -> Alcotest.fail "no flight dump"
  | Some events ->
      let n_violations_in_dump =
        List.length
          (List.filter
             (fun (e : Trace.Event.t) ->
               match e.kind with Violation _ -> true | _ -> false)
             events)
      in
      Alcotest.(check int) "exactly one violation in frozen dump" 1
        n_violations_in_dump;
      (* recording continued past the freeze *)
      Alcotest.(check bool) "recorder kept counting" true
        (Trace.Recorder.events_recorded recorder > List.length events)

(* --- file capture: --jobs 1 vs --jobs 2 byte-identical --------------- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* The disaster as a runner point whose replicates capture
   content-addressed traces, the way every experiment's points do. *)
let disaster_point =
  {
    Runner.label = "drop5";
    run =
      (fun ~seed ->
        let o =
          Trace.Capture.around ~proto:"disaster" ~seed
            ~fingerprint:(fun () -> "disaster|drop5")
            (fun recorder -> Experiments.Disaster.run ~seed ?recorder ())
        in
        [ ("oracle_violations", float_of_int (List.length o.violations)) ]);
  }

let run_matrix_traced ~jobs ~dir =
  Trace.Config.set (Some { Trace.Config.dir; capacity = 128 });
  Fun.protect
    ~finally:(fun () -> Trace.Config.set None)
    (fun () ->
      let exps =
        [
          {
            Runner.id = "disaster";
            name = "trace disaster";
            points = [ disaster_point ];
          };
        ]
      in
      Runner.run ~jobs ~root_seed:7 ~replicates:2 exps)

let test_jobs_byte_identical_traces () =
  let d1 = temp_dir "trace-j1" and d2 = temp_dir "trace-j2" in
  Fun.protect
    ~finally:(fun () -> rm_rf d1; rm_rf d2)
    (fun () ->
      let r1 = run_matrix_traced ~jobs:1 ~dir:d1 in
      let r2 = run_matrix_traced ~jobs:2 ~dir:d2 in
      Alcotest.(check string) "matrix reports identical"
        (Bench_report.Json.to_string
           (Bench_report.Matrix_report.to_json ~with_meta:false r1))
        (Bench_report.Json.to_string
           (Bench_report.Matrix_report.to_json ~with_meta:false r2));
      let ls d = Array.to_list (Sys.readdir d) |> List.sort compare in
      let f1 = ls d1 and f2 = ls d2 in
      Alcotest.(check (list string)) "same trace files" f1 f2;
      Alcotest.(check bool) "traces were written" true (f1 <> []);
      Alcotest.(check bool) "flight dumps among them" true
        (List.exists
           (fun f -> Filename.check_suffix f ".flight.jsonl")
           f1);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical" f)
            (read_file (Filename.concat d1 f))
            (read_file (Filename.concat d2 f));
          if Filename.check_suffix f ".jsonl" then
            match Trace.Schema.validate_file (Filename.concat d1 f) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "%s: %s" f msg)
        f1)

(* --- metrics replay ------------------------------------------------- *)

let test_metrics_replay_matches_live () =
  (* Accumulating metrics from the JSONL stream must reproduce the
     live recorder's numbers (the [trace summary] contract). *)
  let jsonl, recorder, _ = traced_run 5 in
  let live = Trace.Recorder.metrics recorder in
  let replayed = Trace.Metrics.create () in
  String.split_on_char '\n' jsonl
  |> List.iter (fun line ->
         if line <> "" then
           match Trace.Event.of_line line with
           | Ok e -> Trace.Metrics.observe replayed e
           | Error msg -> Alcotest.fail msg);
  let json m = Json.to_string (Trace.Metrics.to_json m) in
  Alcotest.(check string) "same metrics" (json live) (json replayed)

let suite =
  [
    Alcotest.test_case "event jsonl roundtrip" `Quick test_event_roundtrip;
    Alcotest.test_case "payload truncation" `Quick test_event_payload_truncation;
    Alcotest.test_case "schema accepts stream" `Quick test_schema_accepts_stream;
    Alcotest.test_case "schema rejects malformed" `Quick test_schema_rejects;
    Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_bytes;
    Alcotest.test_case "different seed, different bytes" `Quick
      test_different_seed_different_bytes;
    Alcotest.test_case "fault events recorded" `Quick test_fault_events_recorded;
    Alcotest.test_case "flight dump contains offender" `Quick
      test_flight_dump_contains_offender;
    Alcotest.test_case "flight freezes at first violation" `Quick
      test_flight_freezes_at_first_violation;
    Alcotest.test_case "jobs 1 vs 2 byte-identical traces" `Slow
      test_jobs_byte_identical_traces;
    Alcotest.test_case "metrics replay matches live" `Quick
      test_metrics_replay_matches_live;
  ]
