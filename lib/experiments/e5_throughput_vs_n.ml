let name = "E5 throughput efficiency vs traffic N (headline)"

let grid ~quick =
  List.map
    (fun n -> (n, { Scenario.default with Scenario.n_frames = n }))
    (if quick then [ 100; 1000 ] else [ 100; 500; 1000; 2000; 5000 ])

let label n tag = Printf.sprintf "n=%d/%s" n tag

let points ~quick =
  List.concat_map
    (fun (n, cfg) ->
      [
        Scenario.matrix_point ~label:(label n "lams") cfg
          (Scenario.Lams (Scenario.default_lams_params cfg));
        Scenario.matrix_point ~label:(label n "hdlc") cfg
          (Scenario.Hdlc (Scenario.default_hdlc_params cfg));
      ])
    (grid ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E5"
    ~title:"throughput efficiency vs traffic N (headline result)";
  let s_lams = Stats.Series.create ~name:"lams sim" in
  let s_hdlc = Stats.Series.create ~name:"hdlc sim" in
  let s_lams_model = Stats.Series.create ~name:"lams model" in
  let table =
    Stats.Table.create
      ~header:
        [
          "N";
          "lams model";
          "lams sim";
          "hdlc model";
          "hdlc sim";
          "sim speedup";
        ]
  in
  List.iter
    (fun (n, cfg) ->
      let hdlc_params = Scenario.default_hdlc_params cfg in
      let i_cp = (Scenario.default_lams_params cfg).Lams_dlc.Params.w_cp in
      let alpha = Scenario.default_hdlc_alpha cfg in
      let w = hdlc_params.Hdlc.Params.window in
      let lams_link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
      let hdlc_link = Scenario.analytic_link cfg ~protocol_kind:`Hdlc in
      let lams_model = Analysis.Lams_model.throughput_efficiency lams_link ~i_cp ~n in
      let lams = Report.mean e (label n "lams") "efficiency" in
      let hdlc = Report.mean e (label n "hdlc") "efficiency" in
      let x = float_of_int n in
      Stats.Series.add s_lams ~x ~y:lams;
      Stats.Series.add s_hdlc ~x ~y:hdlc;
      Stats.Series.add s_lams_model ~x ~y:lams_model;
      Stats.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.6g" lams_model;
          Report.cell e (label n "lams") "efficiency";
          Printf.sprintf "%.6g"
            (Analysis.Hdlc_model.throughput_efficiency hdlc_link ~alpha ~w ~n);
          Report.cell e (label n "hdlc") "efficiency";
          Printf.sprintf "%.6g" (Report.ratio lams hdlc);
        ])
    (grid ~quick);
  Report.table ppf table;
  Format.fprintf ppf "figure: efficiency vs offered frames N@.";
  Stats.Series.pp_ascii_plot ~height:14 ppf [ s_lams; s_hdlc; s_lams_model ];
  Report.note ppf
    "Expect: lams efficiency rising towards ~0.9 with N; hdlc flat at the\n\
     window duty cycle (W*t_f / (W*t_f + R)); speedup >> 1 throughout."
