type output = { files : (string * string) list; failures : string list }

type entry = { name : string; generate : unit -> output }

let scripted_transfer ~seed ~frames ~recorder =
  let cfg =
    {
      Scenario.default with
      Scenario.seed;
      n_frames = frames;
      ber = 0.;
      cframe_ber = 0.;
      payload_bytes = 256;
      horizon = 10.;
    }
  in
  let faults =
    Channel.Fault.(
      Rules [ rule ~copies:1 (I_nth 5) Drop; rule ~copies:1 (I_nth 12) Drop ])
  in
  let reverse_faults =
    Channel.Fault.(Rules [ rule ~copies:1 (Cp_seq 3) Drop ])
  in
  snd
    (Scenario.run_checked ~faults ~reverse_faults ~recorder cfg
       (Scenario.Lams (Scenario.default_lams_params cfg)))

let failed checks =
  List.filter_map (fun (what, ok) -> if ok then None else Some what) checks

(* A traced scenario: [run] drives it into the capture's recorder and
   returns the outcome checks it failed. *)
let captured name run =
  {
    name;
    generate =
      (fun () ->
        let capture = Trace.Capture.create () in
        let failures = run (Trace.Capture.recorder capture) in
        { files = Trace.Capture.outputs capture ~path:name; failures });
  }

(* The channel trace's text; the replay entry parses this same text, so
   it replays exactly the bytes checked in before it. *)
let eclipse_trace () =
  let comment, data =
    Channel.Trace_model.generate `Eclipse ~frames:1200 ~seed:23
      ~payload_bytes:256
  in
  Channel.Trace_model.to_string ~comment data

let entries =
  [
    captured "trace-golden.jsonl" (fun recorder ->
        let violations = scripted_transfer ~seed:7 ~frames:24 ~recorder in
        failed [ ("the scripted drops are recovered", violations = []) ]);
    captured "corrupt-golden.jsonl" (fun recorder ->
        let open E22_corruption in
        let run =
          run_one ~recorder ~frames:200 ~seed:7 Lams
            (spec_of (List.assoc "reverse-replay" classes))
        in
        failed
          [ ("the reverse replay converges cleanly", run.Scenario.violations = []) ]);
    captured "feedback-golden.jsonl" (fun recorder ->
        let open E24_feedback in
        let run =
          run_one ~recorder ~frames:200 ~guard_on:true ~seed:7 Lams Forge
        in
        let m = Scenario.metric run.Scenario.metrics in
        (* the whole ladder: lie -> quarantine -> forced resync ->
           convergence with nothing wrongly released *)
        failed
          [
            ("one lie", m "lies" = 1.);
            ("one quarantine", m "quarantines" = 1.);
            ("one forced resync", m "resyncs" = 1.);
            ("no wrongful release", m "wrongful_releases" = 0.);
            ("completed", m "completed" = 1.);
          ]);
    {
      name = "channel-trace-golden.trace";
      generate =
        (fun () ->
          {
            files = [ ("channel-trace-golden.trace", eclipse_trace ()) ];
            failures = [];
          });
    };
    (* seed 850 puts the replay offset inside the eclipse's errored region *)
    captured "channel-replay-golden.jsonl" (fun recorder ->
        let cfg =
          {
            Scenario.default with
            Scenario.seed = 850;
            n_frames = 120;
            payload_bytes = 256;
            cframe_ber = 1e-8;
            channel_trace = Some (Channel.Trace_model.parse (eclipse_trace ()));
          }
        in
        let result, violations =
          Scenario.run_checked ~recorder cfg
            (Scenario.Lams (Scenario.default_lams_params cfg))
        in
        failed
          [
            ("the replay is invariant-clean", violations = []);
            ("the transfer completes", result.Scenario.completed);
          ]);
  ]
