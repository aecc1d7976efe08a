(* Tests for the replicated experiment-matrix runner: the determinism
   contract (--jobs must not affect results), the fold into Online
   stats, seed derivation plumbing, and the Matrix_report codec. *)

let render ?(with_meta = false) r =
  Bench_report.Json.to_string
    (Bench_report.Matrix_report.to_json ~with_meta r)

(* Synthetic experiment: cheap, seed-sensitive points. The [spin] draws
   make sibling tasks consume different amounts of their stream, so any
   cross-task RNG sharing or ordering bug shows up as a value change. *)
let synth_experiment ~id ~n_points =
  {
    Runner.id;
    name = "synthetic " ^ id;
    points =
      List.init n_points (fun i ->
          {
            Runner.label = Printf.sprintf "p%d" i;
            run =
              (fun ~seed ->
                let rng = Sim.Rng.create ~seed in
                for _ = 1 to 1 + (i mod 7) do
                  ignore (Sim.Rng.float rng 1. : float)
                done;
                [
                  ("x", Sim.Rng.float rng 1.);
                  ("y", float_of_int (Sim.Rng.int rng 1000));
                ]);
          });
  }

let test_jobs_do_not_change_results () =
  let exps =
    [ synth_experiment ~id:"a" ~n_points:3; synth_experiment ~id:"b" ~n_points:5 ]
  in
  let seq = Runner.run ~jobs:1 ~root_seed:7 ~replicates:4 exps in
  List.iter
    (fun jobs ->
      let par = Runner.run ~jobs ~root_seed:7 ~replicates:4 exps in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d json identical to jobs=1" jobs)
        (render seq) (render par))
    [ 2; 3; 8 ]

let prop_parallel_equals_sequential =
  QCheck2.Test.make ~name:"runner: --jobs 4 == --jobs 1 (byte-identical json)"
    ~count:30
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 1 3) (int_range 0 1_000_000))
    (fun (n_points, replicates, root_seed) ->
      let exps = [ synth_experiment ~id:"q" ~n_points ] in
      let a = Runner.run ~jobs:1 ~root_seed ~replicates exps in
      let b = Runner.run ~jobs:4 ~root_seed ~replicates exps in
      render a = render b)

let test_real_scenario_point_parallel () =
  (* One tiny real simulation point: exercises the whole engine /
     channel / protocol stack under domain-parallel replication. *)
  let cfg = { Experiments.Scenario.default with Experiments.Scenario.n_frames = 60 } in
  let exps =
    [
      {
        Runner.id = "e-smoke";
        name = "scenario smoke";
        points =
          [
            Experiments.Scenario.matrix_point ~label:"lams" cfg
              (Experiments.Scenario.Lams
                 (Experiments.Scenario.default_lams_params cfg));
          ];
      };
    ]
  in
  let a = Runner.run ~jobs:1 ~root_seed:11 ~replicates:2 exps in
  let b = Runner.run ~jobs:4 ~root_seed:11 ~replicates:2 exps in
  Alcotest.(check string) "byte-identical json" (render a) (render b)

let test_fold_counts_and_spread () =
  let constant =
    {
      Runner.id = "c";
      name = "constants";
      points =
        [
          { Runner.label = "const"; run = (fun ~seed:_ -> [ ("v", 2.5) ]) };
          {
            Runner.label = "seeded";
            run = (fun ~seed -> [ ("v", float_of_int (seed land 0xff)) ]);
          };
        ];
    }
  in
  let r = Runner.run ~jobs:2 ~root_seed:5 ~replicates:8 [ constant ] in
  Alcotest.(check int) "replicates recorded" 8
    r.Bench_report.Matrix_report.replicates;
  Alcotest.(check int) "root seed recorded" 5
    r.Bench_report.Matrix_report.root_seed;
  match r.Bench_report.Matrix_report.experiments with
  | [ e ] ->
      let stat label =
        let p =
          List.find
            (fun (p : Bench_report.Matrix_report.point) -> p.label = label)
            e.Bench_report.Matrix_report.points
        in
        List.assoc "v" p.Bench_report.Matrix_report.metrics
      in
      let c = stat "const" in
      Alcotest.(check int) "count = replicates" 8
        c.Bench_report.Matrix_report.count;
      Alcotest.(check (float 1e-12)) "constant mean" 2.5 c.mean;
      Alcotest.(check (float 1e-12)) "constant stddev 0" 0. c.stddev;
      Alcotest.(check (float 1e-12)) "constant ci95 0" 0. c.ci95;
      let s = stat "seeded" in
      Alcotest.(check bool) "derived seeds vary across replicates" true
        (s.Bench_report.Matrix_report.stddev > 0.)
  | _ -> Alcotest.fail "expected one experiment"

(* A point that reports the low bits of the seed it was handed. *)
let test_seed_of_task_matches_rng_derivation () =
  let low seed = float_of_int (seed land 0xFFFFF) in
  let exps =
    [
      {
        Runner.id = "e6";
        name = "seed echo";
        points =
          [
            {
              Runner.label = "ber=1e-5";
              run = (fun ~seed -> [ ("seed", low seed) ]);
            };
          ];
      };
    ]
  in
  match (Runner.run ~jobs:1 ~root_seed:42 ~replicates:1 exps).experiments with
  | [ { points = [ { metrics = [ ("seed", s) ]; _ } ]; _ } ] ->
      Alcotest.(check (float 0.)) "runner seed = Rng.derive_seed"
        (low (Sim.Rng.derive_seed ~root:42 [ "e6"; "ber=1e-5"; "0" ]))
        s.Bench_report.Matrix_report.mean
  | _ -> Alcotest.fail "expected one point with one metric"

let test_task_count () =
  let exps =
    [ synth_experiment ~id:"a" ~n_points:3; synth_experiment ~id:"b" ~n_points:2 ]
  in
  Alcotest.(check int) "task count" 20 (Runner.task_count ~replicates:4 exps)

let test_duplicate_ids_rejected () =
  let exps =
    [ synth_experiment ~id:"dup" ~n_points:1; synth_experiment ~id:"dup" ~n_points:1 ]
  in
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Runner.run: duplicate experiment id \"dup\"") (fun () ->
      ignore
        (Runner.run ~jobs:1 ~replicates:1 exps : Bench_report.Matrix_report.t))

let test_inconsistent_metrics_rejected () =
  let flaky =
    {
      Runner.id = "f";
      name = "flaky metrics";
      points =
        [
          {
            Runner.label = "p";
            run =
              (fun ~seed ->
                if seed mod 2 = 0 then [ ("a", 1.) ] else [ ("b", 1.) ]);
          };
        ];
    }
  in
  (* seeds are hash-derived, so among 16 replicates both parities occur *)
  try
    ignore
      (Runner.run ~jobs:1 ~replicates:16 [ flaky ]
        : Bench_report.Matrix_report.t);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_task_exception_propagates () =
  let boom =
    {
      Runner.id = "x";
      name = "boom";
      points =
        [ { Runner.label = "p"; run = (fun ~seed:_ -> failwith "boom") } ];
    }
  in
  List.iter
    (fun jobs ->
      try
        ignore
          (Runner.run ~jobs ~replicates:2 [ boom ]
            : Bench_report.Matrix_report.t);
        Alcotest.fail "expected Failure"
      with Failure m -> Alcotest.(check string) "task error re-raised" "boom" m)
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "jobs do not change results" `Quick
      test_jobs_do_not_change_results;
    QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
    Alcotest.test_case "real scenario point, parallel" `Slow
      test_real_scenario_point_parallel;
    Alcotest.test_case "fold counts and spread" `Quick
      test_fold_counts_and_spread;
    Alcotest.test_case "seed_of_task = Rng.derive_seed" `Quick
      test_seed_of_task_matches_rng_derivation;
    Alcotest.test_case "task count" `Quick test_task_count;
    Alcotest.test_case "duplicate ids rejected" `Quick
      test_duplicate_ids_rejected;
    Alcotest.test_case "inconsistent metrics rejected" `Quick
      test_inconsistent_metrics_rejected;
    Alcotest.test_case "task exception propagates" `Quick
      test_task_exception_propagates;
  ]
