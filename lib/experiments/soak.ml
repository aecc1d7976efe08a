type harness = {
  schedules : string;
  experiment : schedules:int -> Runner.experiment;
  safe : (string * float) list -> bool;
  violation : string;
}

let oracle_clean metrics = List.assoc_opt "oracle_violations" metrics = Some 0.

(* An unresolved episode over a fully delivered stream is implicit
   convergence, not a failure; a stall is safe only when declared. *)
let feedback_safe metrics =
  let m k = List.assoc_opt k metrics in
  match (m "wrongful_releases", m "completed", m "failure_declared") with
  | Some wrongful, Some completed, Some declared ->
      wrongful = 0. && (completed > 0. || declared > 0.)
  | _ -> false

let handover =
  {
    schedules = "blackout";
    experiment = E21_handover.soak_experiment;
    safe = oracle_clean;
    violation = "oracle violations";
  }

let corrupt =
  {
    schedules = "corruption";
    experiment = E22_corruption.soak_experiment;
    safe = oracle_clean;
    violation = "oracle violations";
  }

let feedback =
  {
    schedules = "lie";
    experiment = E24_feedback.soak_experiment;
    safe = feedback_safe;
    violation = "feedback-safety violations";
  }

let run ?jobs ?root_seed ~schedules h =
  Runner.run ?jobs ?root_seed ~replicates:1 [ h.experiment ~schedules ]

let unsafe_points h (report : Bench_report.Matrix_report.t) =
  List.concat_map
    (fun (e : Bench_report.Matrix_report.experiment) ->
      List.filter_map
        (fun (p : Bench_report.Matrix_report.point) ->
          let maxima =
            List.map
              (fun (k, (s : Bench_report.Matrix_report.stat)) -> (k, s.max))
              p.metrics
          in
          if h.safe maxima then None else Some p.label)
        e.points)
    report.experiments
