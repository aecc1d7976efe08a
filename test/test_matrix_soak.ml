(* Oracle soak: replicated matrix runs with the protocol invariant
   checker subscribed to every replicate.

   Two stress scenarios from the experiment set, each driven through
   Runner.run with multiple replicates and workers:
   - E7-style ablation: elevated control-frame BER plus a seed-varied
     adversary dropping extra frames on both directions, across
     cumulation depths — checkpoint-loss recovery under fire;
   - E9-style blackout: both link directions down mid-transfer, across
     the enforced-recovery boundary.

   Every replicate runs through Scenario.run_checked, with the oracle
   attached, and reports an [oracle_violations] metric next to
   Scenario.matrix_metrics; the fold must come back all-zero, and LAMS
   must keep its zero-loss guarantee on every replicate. *)

(* A checked point: the replicate seed replaces [cfg.seed] and seeds the
   fault scripts. *)
let checked_point ?faults ~label cfg protocol =
  {
    Runner.label;
    run =
      (fun ~seed ->
        let faults = Option.map (fun mk -> mk ~seed) faults in
        let r, violations =
          Experiments.Scenario.run_checked ?faults ?reverse_faults:faults
            { cfg with Experiments.Scenario.seed }
            protocol
        in
        Experiments.Scenario.matrix_metrics r
        @ [ ("oracle_violations", float_of_int (List.length violations)) ]);
  }

let stat ~(report : Bench_report.Matrix_report.t) ~point ~metric =
  match report.Bench_report.Matrix_report.experiments with
  | [ e ] -> (
      match
        List.find_opt
          (fun (p : Bench_report.Matrix_report.point) -> p.label = point)
          e.Bench_report.Matrix_report.points
      with
      | Some p -> (
          match List.assoc_opt metric p.Bench_report.Matrix_report.metrics with
          | Some s -> s
          | None -> Alcotest.failf "metric %s missing at %s" metric point)
      | None -> Alcotest.failf "point %s missing" point)
  | _ -> Alcotest.fail "expected one experiment"

let check_point ?(expect_zero_loss = true) ~report ~replicates ~point () =
  let v = stat ~report ~point ~metric:"oracle_violations" in
  Alcotest.(check int)
    (point ^ ": all replicates checked")
    replicates v.Bench_report.Matrix_report.count;
  Alcotest.(check (float 0.))
    (point ^ ": zero oracle violations on every replicate")
    0. v.Bench_report.Matrix_report.max;
  (* [loss] counts offered-but-undelivered frames, so it must be zero
     whenever the protocol keeps running; past the failure timer the
     sender gives up and retained frames show up here, so the long-
     blackout point only asserts the invariants, not delivery. *)
  if expect_zero_loss then
    let loss = stat ~report ~point ~metric:"loss" in
    Alcotest.(check (float 0.))
      (point ^ ": zero loss on every replicate")
      0. loss.Bench_report.Matrix_report.max

let test_ablation_soak () =
  (* E7's stress axis (frequent checkpoint losses) plus an adversary
     whose schedule varies per replicate but derives from the replicate
     seed — reproducible chaos on both link directions. *)
  let replicates = 2 in
  let cfg =
    {
      Experiments.Scenario.default with
      Experiments.Scenario.n_frames = 150;
      cframe_ber = 1e-4;
      horizon = 20.;
    }
  in
  let adversary ~seed =
    Channel.Fault.adversary ~seed ~p_iframe:0.05 ~p_control:0.05 ()
  in
  let points =
    List.map
      (fun c_depth ->
        let params =
          {
            (Experiments.Scenario.default_lams_params cfg) with
            Lams_dlc.Params.c_depth;
          }
        in
        checked_point ~faults:adversary
          ~label:(Printf.sprintf "c_depth=%d" c_depth)
          cfg (Experiments.Scenario.Lams params))
      [ 1; 3 ]
  in
  let report =
    Runner.run ~jobs:2 ~root_seed:1009 ~replicates
      [ { Runner.id = "e7-soak"; name = "ablation soak"; points } ]
  in
  List.iter
    (fun c_depth ->
      check_point ~report ~replicates
        ~point:(Printf.sprintf "c_depth=%d" c_depth)
        ())
    [ 1; 3 ]

let test_blackout_soak () =
  (* E9's failure drill through the runner: a blackout short enough to
     recover from and one past the silence threshold, oracle watching
     the whole time. The zero-loss guarantee must hold either way —
     frames are retained, never lost, even when failure is declared. *)
  let replicates = 2 in
  let points =
    List.map
      (fun blackout_len ->
        let cfg =
          {
            Experiments.Scenario.default with
            Experiments.Scenario.n_frames = 400;
            horizon = 20.;
            blackout = Some (0.02, blackout_len);
          }
        in
        checked_point
          ~label:(Printf.sprintf "blackout=%g" blackout_len)
          cfg
          (Experiments.Scenario.Lams
             (Experiments.Scenario.default_lams_params cfg)))
      [ 0.02; 1.0 ]
  in
  let report =
    Runner.run ~jobs:2 ~root_seed:4242 ~replicates
      [ { Runner.id = "e9-soak"; name = "blackout soak"; points } ]
  in
  List.iter
    (fun blackout_len ->
      (* only the short blackout is inside the recovery envelope; the
         1 s one crosses the failure timer by design *)
      check_point ~report ~replicates
        ~expect_zero_loss:(blackout_len < 0.1)
        ~point:(Printf.sprintf "blackout=%g" blackout_len)
        ())
    [ 0.02; 1.0 ]

let suite =
  [
    Alcotest.test_case "e7-style adversary soak (oracle on)" `Slow
      test_ablation_soak;
    Alcotest.test_case "e9-style blackout soak (oracle on)" `Slow
      test_blackout_soak;
  ]
