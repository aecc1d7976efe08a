let name = "E6 throughput efficiency vs BER"

let frames ~quick = if quick then 500 else 2000

let grid ~quick =
  List.map
    (fun ber ->
      (ber, { Scenario.default with Scenario.ber; n_frames = frames ~quick }))
    (if quick then [ 1e-6; 1e-4 ] else [ 1e-7; 1e-6; 1e-5; 3e-5; 1e-4; 3e-4 ])

let label ber tag = Printf.sprintf "ber=%g/%s" ber tag

let points ~quick =
  List.concat_map
    (fun (ber, cfg) ->
      [
        Scenario.matrix_point ~label:(label ber "lams") cfg
          (Scenario.Lams (Scenario.default_lams_params cfg));
        Scenario.matrix_point ~label:(label ber "hdlc") cfg
          (Scenario.Hdlc (Scenario.default_hdlc_params cfg));
      ])
    (grid ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E6" ~title:"throughput efficiency vs BER";
  let n = frames ~quick in
  let s_lams = Stats.Series.create ~name:"lams sim" in
  let s_hdlc = Stats.Series.create ~name:"hdlc sim" in
  let table =
    Stats.Table.create
      ~header:[ "ber"; "lams model"; "lams sim"; "hdlc model"; "hdlc sim" ]
  in
  List.iter
    (fun (ber, cfg) ->
      let hdlc_params = Scenario.default_hdlc_params cfg in
      let i_cp = (Scenario.default_lams_params cfg).Lams_dlc.Params.w_cp in
      let alpha = Scenario.default_hdlc_alpha cfg in
      let w = hdlc_params.Hdlc.Params.window in
      let lams_link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
      let hdlc_link = Scenario.analytic_link cfg ~protocol_kind:`Hdlc in
      let x = log10 ber in
      Stats.Series.add s_lams ~x ~y:(Report.mean e (label ber "lams") "efficiency");
      Stats.Series.add s_hdlc ~x ~y:(Report.mean e (label ber "hdlc") "efficiency");
      Stats.Table.add_row table
        [
          Printf.sprintf "%g" ber;
          Printf.sprintf "%.6g"
            (Analysis.Lams_model.throughput_efficiency lams_link ~i_cp ~n);
          Report.cell e (label ber "lams") "efficiency";
          Printf.sprintf "%.6g"
            (Analysis.Hdlc_model.throughput_efficiency hdlc_link ~alpha ~w ~n);
          Report.cell e (label ber "hdlc") "efficiency";
        ])
    (grid ~quick);
  Report.table ppf table;
  Format.fprintf ppf "figure: efficiency vs log10(BER)@.";
  Stats.Series.pp_ascii_plot ppf [ s_lams; s_hdlc ]
