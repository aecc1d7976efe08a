(* Differential check of the observer stack: [Trace.Recorder] (with its
   [Trace.Metrics]) and [Oracle] against the reference observers in
   ref_observers.ml, fed from one probe and one reverse-link tap on the
   same random sessions. The oracle's profile is drawn independently of
   the protocol variant, so a mismatched profile (say, LAMS numbering
   rules over a wrapping SR-HDLC sequence space) produces violations of
   every kind, and with them flight dumps and finalize-time NAK checks
   to compare. *)

module Ref = Ref_observers

type variant = Lams | Hdlc | Nbdt

let variant_name = function Lams -> "lams" | Hdlc -> "hdlc" | Nbdt -> "nbdt"

let profile_to_string = function
  | Oracle.Lams { c_depth; holding_bound } ->
      Printf.sprintf "Lams c_depth=%d holding_bound=%g" c_depth holding_bound
  | Oracle.Hdlc { window; seq_bits } ->
      Printf.sprintf "Hdlc window=%d seq_bits=%d" window seq_bits
  | Oracle.Nbdt -> "Nbdt"

type case = {
  variant : variant;
  profile : Oracle.profile;
  seed : int;
  ber : float;
  frames : int;
  forward : (Channel.Fault.selector * Channel.Fault.action * int) list;
  reverse : (Channel.Fault.selector * Channel.Fault.action * int) list;
}

let print_case c =
  Printf.sprintf "%s session, %s oracle, seed %d, ber %g, %d frames\n  forward: [%s]\n  reverse: [%s]"
    (variant_name c.variant) (profile_to_string c.profile) c.seed c.ber c.frames
    (Test_oracle.script_to_string c.forward)
    (Test_oracle.script_to_string c.reverse)

let gen_profile =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun c_depth holding_bound -> Oracle.Lams { c_depth; holding_bound })
          (int_range 1 4)
          (oneofl [ 1e-4; 2e-3; 5e-2; 1. ]);
        map2
          (fun window seq_bits -> Oracle.Hdlc { window; seq_bits })
          (int_range 1 8) (int_range 2 4);
        return Oracle.Nbdt;
      ])

let gen_case =
  QCheck2.Gen.(
    let* variant = oneofl [ Lams; Hdlc; Nbdt ] in
    let* profile = gen_profile in
    let* seed = int_range 0 1000 in
    let* ber = oneofl [ 0.; 2e-5; 1e-4 ] in
    let* frames = int_range 10 60 in
    let* forward = Test_oracle.gen_script Test_oracle.gen_forward_selector in
    let* reverse = Test_oracle.gen_script Test_oracle.gen_reverse_selector in
    return { variant; profile; seed; ber; frames; forward; reverse })

(* One session; both observer stacks watch it. *)
let run_case c =
  let engine = Sim.Engine.create () in
  let duplex =
    Proto_harness.make_duplex ~seed:c.seed ~ber:c.ber ~cber:(c.ber /. 4.) engine
  in
  let dlc, probe =
    match c.variant with
    | Lams ->
        let s = Lams_dlc.Session.create engine ~params:Test_oracle.fast ~duplex in
        (Lams_dlc.Session.as_dlc s, Lams_dlc.Session.probe s)
    | Hdlc ->
        let params =
          { Hdlc.Params.default with Hdlc.Params.seq_bits = 3; window = 4 }
        in
        let s = Hdlc.Session.create engine ~params ~duplex in
        (Hdlc.Session.as_dlc s, Hdlc.Session.probe s)
    | Nbdt ->
        let s = Nbdt.Session.create engine ~params:Nbdt.Params.default ~duplex in
        (Nbdt.Session.as_dlc s, Nbdt.Session.probe s)
  in
  let recorder = Trace.Recorder.create () in
  let oracle = Oracle.create c.profile in
  let ref_recorder = Ref.Recorder.create () in
  let ref_oracle = Ref.Oracle.create c.profile in
  (* each recorder before its oracle, as Scenario.run_checked wires them *)
  Trace.Recorder.attach_probe recorder probe;
  Oracle.attach oracle ~probe ~duplex;
  Trace.Recorder.attach_oracle recorder oracle;
  Ref.Recorder.attach_probe ref_recorder probe;
  Ref.Oracle.observe ref_oracle probe;
  Ref.Oracle.observe_reverse ref_oracle duplex.Channel.Duplex.reverse;
  Ref.Recorder.attach_oracle ref_recorder ref_oracle;
  let install script link ~name =
    let fault = Test_oracle.compile_script script in
    Trace.Recorder.attach_fault recorder ~link:name fault;
    Ref.Recorder.attach_fault ref_recorder ~link:name fault;
    Channel.Fault.install fault link
  in
  install c.forward duplex.Channel.Duplex.forward ~name:"forward";
  install c.reverse duplex.Channel.Duplex.reverse ~name:"reverse";
  for i = 0 to c.frames - 1 do
    ignore (dlc.Dlc.Session.offer (Proto_harness.payload i) : bool)
  done;
  Sim.Engine.run engine ~until:5.;
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine;
  Oracle.finalize oracle;
  Ref.Oracle.finalize ref_oracle;
  (recorder, oracle, ref_recorder, ref_oracle)

let same_violation (a : Oracle.violation) (b : Oracle.violation) =
  Int64.equal (Int64.bits_of_float a.time) (Int64.bits_of_float b.time)
  && a.invariant = b.invariant && a.detail = b.detail

let show_violation (v : Oracle.violation) =
  Printf.sprintf "[%h] %s: %s" v.time v.invariant v.detail

let rec first_difference i xs ys =
  match (xs, ys) with
  | [], [] -> None
  | x :: xs, y :: ys ->
      if same_violation x y then first_difference (i + 1) xs ys
      else Some (Printf.sprintf "#%d: %s vs %s" i (show_violation x) (show_violation y))
  | x :: _, [] -> Some (Printf.sprintf "#%d: %s vs nothing" i (show_violation x))
  | [], y :: _ -> Some (Printf.sprintf "#%d: nothing vs %s" i (show_violation y))

let check_case c =
  let recorder, oracle, ref_recorder, ref_oracle = run_case c in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let metrics =
    Bench_report.Json.to_string ~indent:0
      (Trace.Metrics.to_json (Trace.Recorder.metrics recorder))
  and ref_metrics =
    Bench_report.Json.to_string ~indent:0
      (Ref.Metrics.to_json (Ref.Recorder.metrics ref_recorder))
  in
  if metrics <> ref_metrics then
    fail "metrics differ:\n  flat %s\n  reference %s" metrics ref_metrics;
  (match first_difference 0 (Oracle.violations oracle) (Ref.Oracle.violations ref_oracle) with
  | Some d -> fail "violation lists differ at %s" d
  | None -> ());
  if Oracle.violation_count oracle <> Ref.Oracle.violation_count ref_oracle then
    fail "violation counts differ: %d vs %d" (Oracle.violation_count oracle)
      (Ref.Oracle.violation_count ref_oracle);
  let flight = Trace.Recorder.flight_jsonl recorder
  and ref_flight = Ref.Recorder.flight_jsonl ref_recorder in
  if flight <> ref_flight then
    fail "flight dumps differ:\n--- flat\n%s--- reference\n%s"
      (Option.value flight ~default:"(none)\n")
      (Option.value ref_flight ~default:"(none)\n");
  true

let prop_observers_match_reference =
  QCheck2.Test.make ~name:"flat observers match the reference observers"
    ~count:60 ~print:print_case gen_case check_case

(* The property is only as strong as the violations it sees: over a
   fixed batch of cases, most kinds of violation and a NAK-underrun
   ordering must occur. *)
let test_cases_cover_violations () =
  let rand = Random.State.make [| 7 |] in
  let seen = Hashtbl.create 16 in
  let underruns = ref 0 in
  for _ = 1 to 60 do
    let c = QCheck2.Gen.generate1 ~rand gen_case in
    let _, oracle, _, _ = run_case c in
    let n =
      List.length
        (List.filter
           (fun (v : Oracle.violation) -> v.invariant = "nak-underrun")
           (Oracle.violations oracle))
    in
    if n >= 2 then incr underruns;
    List.iter
      (fun (v : Oracle.violation) -> Hashtbl.replace seen v.invariant ())
      (Oracle.violations oracle)
  done;
  List.iter
    (fun inv ->
      if not (Hashtbl.mem seen inv) then Alcotest.failf "no case raised %s" inv)
    [
      "seq-reuse"; "seq-monotone"; "seq-range"; "seq-stable";
      "window-overflow"; "holding-bound"; "nak-overrun"; "nak-underrun";
      "per-seq-duplicate"; "reorder";
    ];
  if !underruns = 0 then
    Alcotest.fail "no case raised two finalize-time NAK violations"

(* A long random stream straight into both metrics: thousands of wire
   numbers outstanding at once, so the flat table grows and deletes far
   past what the short sessions above reach. *)
let test_metrics_long_stream () =
  let rand = Random.State.make [| 11 |] in
  let flat = Trace.Metrics.create () and reference = Ref.Metrics.create () in
  let payload = Frame.Payload.of_string "m" in
  let time = ref 0. in
  for i = 0 to 40_000 do
    time := !time +. Random.State.float rand 1e-4;
    let seq = Random.State.int rand 6_000 in
    let kind =
      match Random.State.int rand 10 with
      | 0 | 1 | 2 | 3 ->
          Dlc.Probe.Tx { seq; payload; retx = Random.State.bool rand }
      | 4 | 5 -> Dlc.Probe.Released { seq; payload }
      | 6 | 7 -> Dlc.Probe.Requeued { seq; payload }
      | 8 ->
          Dlc.Probe.Cp_emitted
            {
              cp_seq = i;
              next_expected = seq;
              enforced = false;
              stop_go = false;
              naks = Array.init (Random.State.int rand 4) (fun k -> seq + (7 * k));
            }
      | _ -> Dlc.Probe.Delivered { seq; payload }
    in
    let e = { Trace.Event.i; time = !time; kind = Trace.Event.Probe kind } in
    Trace.Metrics.observe flat e;
    Ref.Metrics.observe reference e
  done;
  Alcotest.(check string) "metrics JSON"
    (Bench_report.Json.to_string ~indent:0 (Ref.Metrics.to_json reference))
    (Bench_report.Json.to_string ~indent:0 (Trace.Metrics.to_json flat))

(* The random cases trip the oracle before the recorder's 512-event ring
   fills. This one wraps it: an 8-bit SR-HDLC profile watches a clean
   LAMS stream, whose wire numbers leave that space only at the 257th
   transmission, after all 300 offers. *)
let test_flight_dump_wraps_the_ring () =
  let c =
    {
      variant = Lams;
      profile = Oracle.Hdlc { window = 1_000; seq_bits = 8 };
      seed = 1;
      ber = 0.;
      frames = 300;
      forward = [];
      reverse = [];
    }
  in
  ignore (check_case c : bool);
  let recorder, _, _, _ = run_case c in
  match Trace.Recorder.flight recorder with
  | Some events -> Alcotest.(check int) "a full ring" 512 (List.length events)
  | None -> Alcotest.fail "no flight dump"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_observers_match_reference;
    Alcotest.test_case "the cases raise every kind of violation" `Quick
      test_cases_cover_violations;
    Alcotest.test_case "metrics match the reference on a long stream" `Quick
      test_metrics_long_stream;
    Alcotest.test_case "flight dump past a full ring" `Quick
      test_flight_dump_wraps_the_ring;
  ]
