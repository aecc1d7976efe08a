(* Handover layer tests: contact plans, the link lifecycle, carryover
   snapshots, the session manager across windows and mid-window
   failures, adversarial-phase link cuts, the flight-recorder view of a
   failed handover, and the seed-pinned chaos soak. *)

module Plan = Handover.Plan
module Lifecycle = Handover.Lifecycle
module Carryover = Handover.Carryover
module Manager = Handover.Manager

let w t_start t_end = { Orbit.Contact.t_start; t_end }

let feq name a b ~eps =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %g != %g" name a b

(* --- Plan ---------------------------------------------------------------- *)

let make_duplex engine =
  Channel.Duplex.create_static engine
    ~rng:(Sim.Rng.create ~seed:1)
    ~distance_m:600_000. ~data_rate_bps:300e6
    ~iframe_error:Channel.Error_model.perfect
    ~cframe_error:Channel.Error_model.perfect

let parse = Proto_harness.from_file Plan.load

let test_plan_parse_roundtrip () =
  let text =
    "# three contacts\n\
     retarget 0.002\n\
     window 0 0.025  # first\n\
     \n\
     window 0.035 0.06\n\
     window 0.07 0.095\n"
  in
  match parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      feq "retarget" 0.002 (Plan.retarget_overhead p) ~eps:0.;
      Alcotest.(check bool) "windows read exactly" true
        (Plan.windows p = [ w 0. 0.025; w 0.035 0.06; w 0.07 0.095 ]);
      feq "end time" 0.095 (Option.get (Plan.end_time p)) ~eps:0.

let expect_plan_error text needle =
  match parse text with
  | Ok _ -> Alcotest.failf "accepted invalid plan %S" text
  | Error e ->
      if not (Astring.String.is_infix ~affix:needle e) then
        Alcotest.failf "error %S does not mention %S" e needle

let test_plan_parse_errors () =
  expect_plan_error "window 5 4\n" "empty or reversed";
  expect_plan_error "window 0 10\nwindow 5 20\n" "starts before";
  expect_plan_error "retarget 1\nretarget 2\nwindow 0 1\n"
    "line 2: duplicate retarget";
  expect_plan_error "retarget banana\n" "line 1";
  expect_plan_error "window 0\n" "line 1";
  expect_plan_error "frobnicate 1 2\n" "expected";
  expect_plan_error "retarget -1\nwindow 0 1\n" "retarget";
  let p = Plan.scripted_exn ~retarget_overhead:0. [] in
  Alcotest.(check bool) "empty plan has no end" true (Plan.end_time p = None)

let test_plan_usable_windows () =
  (* the second window is shorter than the retargeting overhead and
     never comes up: the link is up once, from 0.6 to 1 *)
  let p = Plan.scripted_exn ~retarget_overhead:0.6 [ w 0. 1.; w 2. 2.5 ] in
  let engine = Sim.Engine.create () in
  let lc = Lifecycle.create engine ~plan:p ~duplex:(make_duplex engine) () in
  let ups = ref [] in
  Lifecycle.subscribe lc (fun ~now ~old_state next ->
      let close (s, e) = if Float.is_nan e then (s, now) else (s, e) in
      if next = Lifecycle.Up then ups := (now, nan) :: !ups
      else if old_state = Lifecycle.Up then ups := List.map close !ups);
  Sim.Engine.run engine;
  match !ups with
  | [ (s, e) ] ->
      feq "shrunk start" 0.6 s ~eps:1e-12;
      feq "kept end" 1. e ~eps:1e-12
  | us -> Alcotest.failf "expected 1 usable window, got %d" (List.length us)

(* --- Lifecycle ----------------------------------------------------------- *)

let test_lifecycle_schedule () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let plan = Plan.scripted_exn ~retarget_overhead:0.25 [ w 1. 2.; w 3. 4. ] in
  let probe = Dlc.Probe.create () in
  let lc = Lifecycle.create ~probe engine ~plan ~duplex () in
  Alcotest.(check bool) "starts dark" false
    (Channel.Link.is_up duplex.Channel.Duplex.forward);
  let seen = ref [] in
  Lifecycle.subscribe lc (fun ~now ~old_state:_ next ->
      (* the duplex is switched before hooks fire *)
      Alcotest.(check bool) "duplex matches state" (next = Lifecycle.Up)
        (Channel.Link.is_up duplex.Channel.Duplex.forward);
      seen := (now, next) :: !seen);
  let probed = ref [] in
  Dlc.Probe.subscribe probe (fun ~now:_ -> function
    | Dlc.Probe.Link_transition { state } -> probed := state :: !probed
    | _ -> ());
  Sim.Engine.run engine;
  let expect =
    [
      (1., Lifecycle.Retargeting);
      (1.25, Lifecycle.Up);
      (2., Lifecycle.Down);
      (3., Lifecycle.Retargeting);
      (3.25, Lifecycle.Up);
      (4., Lifecycle.Failed);
    ]
  in
  let got = List.rev !seen in
  Alcotest.(check int) "transition count" (List.length expect) (List.length got);
  List.iter2
    (fun (te, se) (tg, sg) ->
      feq "transition time" te tg ~eps:1e-9;
      Alcotest.(check bool) "state" true (se = sg))
    expect got;
  Alcotest.(check int) "transitions counter" 6 (Lifecycle.transitions lc);
  Alcotest.(check bool) "terminal failed" true (Lifecycle.state lc = Failed);
  Alcotest.(check bool) "dark after failure" false
    (Channel.Link.is_up duplex.Channel.Duplex.forward);
  (* the probe mirrors every transition *)
  Alcotest.(check bool) "probe transitions" true
    (List.rev !probed
    = Dlc.Probe.
        [
          Link_retargeting; Link_up; Link_down; Link_retargeting; Link_up;
          Link_failed;
        ]);
  match Lifecycle.history lc with
  | (t0, Lifecycle.Down) :: rest ->
      feq "history starts at creation" 0. t0 ~eps:0.;
      Alcotest.(check int) "history length" 6 (List.length rest)
  | _ -> Alcotest.fail "history must start with the initial Down"

let test_lifecycle_window_shorter_than_retarget () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let plan = Plan.scripted_exn ~retarget_overhead:0.5 [ w 1. 1.2 ] in
  let lc = Lifecycle.create engine ~plan ~duplex () in
  let came_up = ref false in
  Lifecycle.subscribe lc (fun ~now:_ ~old_state:_ next ->
      if next = Lifecycle.Up then came_up := true);
  Sim.Engine.run engine;
  Alcotest.(check bool) "never up" false !came_up;
  Alcotest.(check bool) "failed at plan end" true (Lifecycle.state lc = Failed)

let test_lifecycle_empty_plan_fails () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let lc =
    Lifecycle.create engine ~plan:(Plan.scripted_exn ~retarget_overhead:0. []) ~duplex ()
  in
  Sim.Engine.run engine;
  Alcotest.(check bool) "failed" true (Lifecycle.state lc = Failed)

let test_lifecycle_stop_cancels () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let plan = Plan.scripted_exn ~retarget_overhead:0. [ w 1. 2. ] in
  let lc = Lifecycle.create engine ~plan ~duplex () in
  Sim.Engine.run engine ~until:0.5;
  Lifecycle.stop lc;
  Sim.Engine.run engine;
  Alcotest.(check bool) "still down" true (Lifecycle.state lc = Down);
  Alcotest.(check int) "no transitions fired" 0 (Lifecycle.transitions lc)

(* --- Carryover ----------------------------------------------------------- *)

let lams_params =
  { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3; c_depth = 3 }

let test_carryover_snapshot_and_replay () =
  (* a session transmitting into a dark link resolves nothing: the
     snapshot must classify and return every offered payload, oldest
     first *)
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  Channel.Duplex.set_down duplex;
  let session = Lams_dlc.Session.create engine ~params:lams_params ~duplex in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload:_ -> ());
  let payloads =
    List.init 5 (fun i -> Frame.Payload.of_string (Printf.sprintf "co-%d" i))
  in
  List.iter
    (fun p -> Alcotest.(check bool) "offer accepted" true (dlc.Dlc.Session.offer p))
    payloads;
  Sim.Engine.run engine ~until:0.004;
  let co = Carryover.snapshot ~now:(Sim.Engine.now engine) session in
  feq "closed at" 0.004 (Carryover.closed_at co) ~eps:1e-9;
  Alcotest.(check int) "all five unresolved" 5
    (List.length (Carryover.unresolved co));
  Alcotest.(check (list string)) "payloads oldest first"
    (List.map Frame.Payload.to_string payloads)
    (List.map Frame.Payload.to_string (Carryover.payloads co));
  (* a run without checkpoints leaves every frame Suspicious *)
  Alcotest.(check int) "all drained frames suspicious" 5 (Carryover.suspicious co)

let test_carryover_empty_after_completion () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let session = Lams_dlc.Session.create engine ~params:lams_params ~duplex in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload:_ -> ());
  ignore (dlc.Dlc.Session.offer (Frame.Payload.of_string "only") : bool);
  Sim.Engine.run engine ~until:1.;
  let co = Carryover.snapshot ~now:1. session in
  Alcotest.(check int) "nothing unresolved" 0
    (List.length (Carryover.unresolved co))

(* --- Manager ------------------------------------------------------------- *)

let three_window_plan =
  Plan.scripted_exn ~retarget_overhead:2e-3
    [ w 0. 0.025; w 0.035 0.06; w 0.07 0.095 ]

let m i = Frame.Payload.of_string (Printf.sprintf "m-%03d" i)

(* Run [n] payloads through a manager over [plan], watched by the
   cross-handover transfer oracle; returns (manager, transfer, delivered
   table). *)
let run_manager ?(n = 30) ?(params = lams_params) ?(horizon = 0.15) ?on_duplex
    ~plan () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let probe = Dlc.Probe.create () in
  let mgr = Manager.create ~probe engine ~params ~duplex ~plan in
  let transfer = Oracle.Transfer.create ~name:"test-transfer" in
  Oracle.Transfer.observe transfer probe;
  Manager.set_on_suspicious_replay mgr (Oracle.Transfer.mark_suspicious transfer);
  let delivered = Hashtbl.create 64 in
  Manager.set_on_deliver mgr (fun ~payload ->
      Hashtbl.replace delivered payload
        (1 + Option.value ~default:0 (Hashtbl.find_opt delivered payload)));
  (match on_duplex with Some f -> f engine duplex | None -> ());
  for i = 0 to n - 1 do
    Alcotest.(check bool) "offer accepted" true
      (Manager.offer mgr (m i))
  done;
  Sim.Engine.run engine ~until:horizon;
  Manager.stop mgr;
  Sim.Engine.run engine;
  Oracle.Transfer.finalize ~retained:(Manager.retained mgr) transfer;
  (mgr, transfer, delivered)

let check_all_delivered ~n delivered =
  for i = 0 to n - 1 do
    if not (Hashtbl.mem delivered (m i)) then
      Alcotest.failf "payload %d never delivered" i
  done

let test_manager_three_windows_zero_loss () =
  let mgr, transfer, delivered = run_manager ~plan:three_window_plan () in
  let st = Manager.stats mgr in
  Alcotest.(check int) "three windows opened" 3 st.Manager.windows_opened;
  Alcotest.(check int) "one session per window" 3 st.Manager.sessions_created;
  check_all_delivered ~n:30 delivered;
  Alcotest.(check int) "nothing retained" 0 (List.length (Manager.retained mgr));
  Alcotest.(check int) "spans three windows" 3
    (Oracle.Transfer.sessions_spanned transfer);
  Proto_harness.assert_no_violations (Oracle.Transfer.violations transfer)

let test_manager_blackout_carryover () =
  (* unscheduled outages inside windows force carryovers; the transfer
     oracle holds duplicates to the Suspicious budget, conservation to
     zero loss *)
  let cut engine duplex =
    List.iter
      (fun (down, up) ->
        ignore
          (Sim.Engine.schedule engine ~delay:down (fun () ->
               Channel.Duplex.set_down duplex)
            : Sim.Engine.event_id);
        ignore
          (Sim.Engine.schedule engine ~delay:up (fun () ->
               Channel.Duplex.set_up duplex)
            : Sim.Engine.event_id))
      [ (0.004, 0.01); (0.046, 0.054) ]
  in
  let mgr, transfer, delivered =
    run_manager ~plan:three_window_plan ~on_duplex:cut ()
  in
  check_all_delivered ~n:30 delivered;
  Alcotest.(check int) "nothing retained" 0 (List.length (Manager.retained mgr));
  Proto_harness.assert_no_violations (Oracle.Transfer.violations transfer)

let test_manager_mid_window_failure_successor () =
  (* an outage long enough to exhaust the Request-NAK backoff makes the
     sender declare failure mid-window; the manager must bring up a
     successor session in the same window and finish the transfer *)
  let params = { lams_params with Lams_dlc.Params.request_nak_retries = 1 } in
  let plan = Plan.scripted_exn ~retarget_overhead:0. [ w 0. 0.3 ] in
  let cut engine duplex =
    ignore
      (Sim.Engine.schedule engine ~delay:0.005 (fun () ->
           Channel.Duplex.set_down duplex)
        : Sim.Engine.event_id);
    ignore
      (Sim.Engine.schedule engine ~delay:0.15 (fun () ->
           Channel.Duplex.set_up duplex)
        : Sim.Engine.event_id)
  in
  let mgr, transfer, delivered =
    run_manager ~params ~plan ~horizon:0.32 ~on_duplex:cut ()
  in
  let st = Manager.stats mgr in
  Alcotest.(check bool) "failure declared mid-window" true
    (st.Manager.mid_window_failures >= 1);
  Alcotest.(check bool) "successor sessions created" true
    (st.Manager.sessions_created > st.Manager.windows_opened);
  Alcotest.(check bool) "oracle saw the failures" true
    (Oracle.Transfer.failures_declared transfer >= 1);
  check_all_delivered ~n:30 delivered;
  Proto_harness.assert_no_violations (Oracle.Transfer.violations transfer)

let test_manager_refuses_after_failed () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let plan = Plan.scripted_exn ~retarget_overhead:0. [ w 0. 1e-3 ] in
  let mgr = Manager.create engine ~params:lams_params ~duplex ~plan in
  Sim.Engine.run engine;
  Alcotest.(check bool) "lifecycle failed" true
    (Lifecycle.state (Manager.lifecycle mgr) = Failed);
  Alcotest.(check bool) "offer refused" false
    (Manager.offer mgr (Frame.Payload.of_string "late"));
  (* payloads stranded in the buffer stay accounted *)
  Alcotest.(check int) "nothing pending" 0 (List.length (Manager.retained mgr))

(* --- adversarial-phase link cuts (E21 scenarios) ------------------------- *)

let test_adversarial_phase_cuts () =
  List.iter
    (fun (label, cut) ->
      let setup =
        {
          Experiments.E21_handover.default_setup with
          Experiments.E21_handover.cut;
          drop_nth_iframe = Some 3;
        }
      in
      let o = Experiments.E21_handover.run_transfer ~seed:11 setup in
      if o.Experiments.E21_handover.violations <> [] then
        Alcotest.failf "%s: %s" label
          (String.concat "; "
             (List.map
                (fun v -> v.Oracle.invariant ^ ": " ^ v.Oracle.detail)
                o.Experiments.E21_handover.violations));
      Alcotest.(check bool) (label ^ " completed") true
        o.Experiments.E21_handover.completed)
    [
      ("cut mid-serialisation", `First_tx);
      ("cut between checkpoint and NAK", `First_nak);
      ("cut during enforced recovery", `Recovery);
    ]

(* --- flight recorder across a failed handover ---------------------------- *)

let test_flight_dump_records_failure_declared () =
  (* Attaching a per-session LAMS oracle to the manager's shared probe is
     the documented anti-pattern: wire numbering restarts with the
     successor session and trips the numbering invariant. Useful here:
     the frozen flight dump must show the failure declaration that
     preceded the restart, as schema-valid events. *)
  let engine = Sim.Engine.create () in
  let duplex = make_duplex engine in
  let params = { lams_params with Lams_dlc.Params.request_nak_retries = 1 } in
  let plan = Plan.scripted_exn ~retarget_overhead:0. [ w 0. 0.3 ] in
  let probe = Dlc.Probe.create () in
  let mgr = Manager.create ~probe engine ~params ~duplex ~plan in
  Manager.set_on_deliver mgr (fun ~payload:_ -> ());
  let recorder = Trace.Recorder.create ~name:"handover-flight" () in
  Trace.Recorder.attach_probe recorder probe;
  let oracle =
    Oracle.create ~name:"per-session-on-shared-probe"
      (Oracle.Lams
         { c_depth = params.Lams_dlc.Params.c_depth; holding_bound = 1. })
  in
  Oracle.observe oracle probe;
  Trace.Recorder.attach_oracle recorder oracle;
  ignore
    (Sim.Engine.schedule engine ~delay:0.005 (fun () ->
         Channel.Duplex.set_down duplex)
      : Sim.Engine.event_id);
  ignore
    (Sim.Engine.schedule engine ~delay:0.15 (fun () ->
         Channel.Duplex.set_up duplex)
      : Sim.Engine.event_id);
  for i = 0 to 19 do
    let p = Frame.Payload.of_string (Printf.sprintf "f-%02d" i) in
    ignore (Manager.offer mgr p : bool)
  done;
  Sim.Engine.run engine ~until:0.32;
  Manager.stop mgr;
  Sim.Engine.run engine;
  match Trace.Recorder.flight_jsonl recorder with
  | None -> Alcotest.fail "numbering restart did not freeze a flight dump"
  | Some dump ->
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' dump)
      in
      (* every line is schema-valid, including the renamed event *)
      List.iter
        (fun line ->
          match Trace.Event.of_line line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "flight line invalid: %s (%s)" e line)
        lines;
      Alcotest.(check bool) "flight shows the failure declaration" true
        (List.exists
           (fun l -> Astring.String.is_infix ~affix:"\"ev\":\"failure-declared\"" l)
           lines);
      Alcotest.(check bool) "flight ends with the violation" true
        (Astring.String.is_infix ~affix:"\"ev\":\"violation\""
           (List.nth lines (List.length lines - 1)))

(* --- Failure_declared from all three protocol variants ------------------- *)

let test_failure_declared_all_variants () =
  let saw probe =
    let seen = ref false in
    Dlc.Probe.subscribe probe (fun ~now:_ -> function
      | Dlc.Probe.Failure_declared -> seen := true
      | _ -> ());
    seen
  in
  (* LAMS: permanent blackout exhausts the Request-NAK backoff *)
  let t, session = Proto_harness.lams ~params:lams_params () in
  let lams_seen = saw (Lams_dlc.Session.probe session) in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.005 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex)
      : Sim.Engine.event_id);
  Proto_harness.offer_all t 100;
  Proto_harness.run_to_completion t ~horizon:10.;
  Alcotest.(check bool) "lams declares" true !lams_seen;
  (* HDLC: N2 retries exhausted *)
  let hdlc_params =
    { Hdlc.Params.default with Hdlc.Params.max_retries = 3; t_out = 5e-3 }
  in
  let t, session = Proto_harness.hdlc ~params:hdlc_params () in
  let hdlc_seen = saw (Hdlc.Session.probe session) in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.001 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex)
      : Sim.Engine.event_id);
  Proto_harness.offer_all t 50;
  Proto_harness.run_to_completion t ~horizon:5.;
  Alcotest.(check bool) "hdlc declares" true !hdlc_seen;
  (* NBDT: report watchdog gives up *)
  let t, session = Proto_harness.nbdt () in
  let nbdt_seen = saw (Nbdt.Session.probe session) in
  ignore
    (Sim.Engine.schedule t.Proto_harness.engine ~delay:0.002 (fun () ->
         Channel.Duplex.set_down t.Proto_harness.duplex)
      : Sim.Engine.event_id);
  Proto_harness.offer_all t 100;
  Proto_harness.run_to_completion t ~horizon:30.;
  Alcotest.(check bool) "nbdt declares" true !nbdt_seen

(* --- chaos soak ---------------------------------------------------------- *)

let test_chaos_soak () =
  (* 50 seed-pinned random blackout schedules, every run watched by the
     transfer oracle *)
  let report =
    Experiments.Soak.(run ~jobs:2 ~schedules:50 handover)
  in
  let points =
    List.concat_map
      (fun e -> e.Bench_report.Matrix_report.points)
      report.Bench_report.Matrix_report.experiments
  in
  Alcotest.(check int) "one point per schedule" 50 (List.length points);
  Alcotest.(check (list string))
    "no schedule trips the oracle" []
    Experiments.Soak.(unsafe_points handover report)

(* --- E21's transfers, pinned ------------------------------------------- *)

(* The exact metric vectors of E21's base run and its three phase cuts at
   seed 11, floats compared by their bits: the soaks compare these runs
   only across --jobs, so a rewiring of the transfer would otherwise move
   them unseen. *)
let pinned_transfer ~carried ~dup_dropped =
  [
    ("messages_completed", 10.);
    ("payloads", 30.);
    ("dup_dropped", dup_dropped);
    ("windows_opened", 3.);
    ("sessions", 3.);
    ("mid_window_failures", 0.);
    ("carried_over", carried);
    ("suspicious_carried", carried);
    ("retained", 0.);
    ("link_transitions", 9.);
    ("completed", 1.);
    ("oracle_violations", 0.);
  ]

let check_bits label expected actual =
  let bits = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) in
  Alcotest.(check (list (pair string int64))) label (bits expected) (bits actual)

let test_transfers_pinned () =
  let module E21 = Experiments.E21_handover in
  let cut c = { E21.default_setup with E21.cut = c; drop_nth_iframe = Some 3 } in
  List.iter
    (fun (label, setup, expected) ->
      check_bits label expected
        (E21.outcome_metrics (E21.run_transfer ~seed:11 setup)))
    [
      ("3-windows", E21.default_setup, pinned_transfer ~carried:0. ~dup_dropped:0.);
      ("first-tx", cut `First_tx, pinned_transfer ~carried:0. ~dup_dropped:0.);
      ("first-nak", cut `First_nak, pinned_transfer ~carried:2. ~dup_dropped:2.);
      ("recovery", cut `Recovery, pinned_transfer ~carried:0. ~dup_dropped:0.);
    ]

let suite =
  [
    Alcotest.test_case "plan parse round-trip" `Quick test_plan_parse_roundtrip;
    Alcotest.test_case "plan parse errors" `Quick test_plan_parse_errors;
    Alcotest.test_case "plan usable windows" `Quick test_plan_usable_windows;
    Alcotest.test_case "lifecycle schedule" `Quick test_lifecycle_schedule;
    Alcotest.test_case "lifecycle short window" `Quick
      test_lifecycle_window_shorter_than_retarget;
    Alcotest.test_case "lifecycle empty plan" `Quick test_lifecycle_empty_plan_fails;
    Alcotest.test_case "lifecycle stop" `Quick test_lifecycle_stop_cancels;
    Alcotest.test_case "carryover snapshot and replay" `Quick
      test_carryover_snapshot_and_replay;
    Alcotest.test_case "carryover empty when resolved" `Quick
      test_carryover_empty_after_completion;
    Alcotest.test_case "manager three windows zero loss" `Quick
      test_manager_three_windows_zero_loss;
    Alcotest.test_case "manager blackout carryover" `Quick
      test_manager_blackout_carryover;
    Alcotest.test_case "manager mid-window failure successor" `Quick
      test_manager_mid_window_failure_successor;
    Alcotest.test_case "manager refuses after failed" `Quick
      test_manager_refuses_after_failed;
    Alcotest.test_case "adversarial phase cuts" `Quick test_adversarial_phase_cuts;
    Alcotest.test_case "flight dump records failure" `Quick
      test_flight_dump_records_failure_declared;
    Alcotest.test_case "failure declared by all variants" `Quick
      test_failure_declared_all_variants;
    Alcotest.test_case "chaos soak 50 schedules" `Slow test_chaos_soak;
    Alcotest.test_case "E21 transfers pinned at seed 11" `Quick
      test_transfers_pinned;
  ]
