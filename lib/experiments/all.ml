type t = {
  id : string;
  name : string;
  report :
    quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit;
  points : quick:bool -> Runner.point list;
}

let entry id name report points = { id; name; report; points }

let all =
  [
    E1_mean_periods.(entry "e1" name report points);
    E2_low_traffic_delay.(entry "e2" name report points);
    E3_holding_time.(entry "e3" name report points);
    E4_transparent_buffer.(entry "e4" name report points);
    E5_throughput_vs_n.(entry "e5" name report points);
    E6_throughput_vs_ber.(entry "e6" name report points);
    E7_ablation.(entry "e7" name report points);
    E8_burst_errors.(entry "e8" name report points);
    E9_link_failure.(entry "e9" name report points);
    E10_ntotal.(entry "e10" name report points);
    E11_retransmission_prob.(entry "e11" name report points);
    E12_numbering.(entry "e12" name report points);
    E13_arq_variants.(entry "e13" name report points);
    E14_window_scaling.(entry "e14" name report points);
    E15_fec_residual.(entry "e15" name report points);
    E16_contact_window.(entry "e16" name report points);
    E17_nbdt.(entry "e17" name report points);
    E18_hybrid_arq.(entry "e18" name report points);
    E19_delay_distribution.(entry "e19" name report points);
    E20_multihop.(entry "e20" name report points);
    E21_handover.(entry "e21" name report points);
    E22_corruption.(entry "e22" name report points);
    E23_trace_replay.(entry "e23" name report points);
    E24_feedback.(entry "e24" name report points);
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = id) all

let matrix ?(quick = false) selected =
  List.map
    (fun e -> { Runner.id = e.id; name = e.name; points = e.points ~quick })
    selected

let report ~quick ppf (r : Bench_report.Matrix_report.t) =
  Report.matrix ppf r ~render:(fun ppf (m : Bench_report.Matrix_report.experiment) ->
      match find m.id with
      | Some e -> e.report ~quick m ppf
      | None -> invalid_arg ("All.report: unknown experiment " ^ m.id))
