let name = "E2 low-traffic delivery time D_low(N)"

let grid ~quick =
  List.map
    (fun n -> (n, { Scenario.default with Scenario.n_frames = n; ber = 1e-5 }))
    (if quick then [ 1; 10; 50 ] else [ 1; 10; 50; 100; 500; 1000 ])

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
  Report.section ppf ~id:"E2" ~title:"low-traffic delivery time D_low(N)";
  let table =
    Stats.Table.create
      ~header:
        [ "N"; "lams model s"; "lams sim s"; "hdlc model s"; "hdlc sim s" ]
  in
  List.iter
    (fun (n, cfg) ->
      let i_cp = (Scenario.default_lams_params cfg).Lams_dlc.Params.w_cp in
      let w = (Scenario.default_hdlc_params cfg).Hdlc.Params.window in
      let alpha = Scenario.default_hdlc_alpha cfg in
      let lams_link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
      let hdlc_link = Scenario.analytic_link cfg ~protocol_kind:`Hdlc in
      let hdlc_model =
        if n <= w then Analysis.Hdlc_model.d_low hdlc_link ~alpha ~w:n
        else Analysis.Hdlc_model.d_high hdlc_link ~alpha ~w ~n
      in
      Stats.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.6g" (Analysis.Lams_model.d_low lams_link ~i_cp ~n);
          Report.cell e (label n "lams") "elapsed_s";
          Printf.sprintf "%.6g" hdlc_model;
          Report.cell e (label n "hdlc") "elapsed_s";
        ])
    (grid ~quick);
  Report.table ppf table;
  Report.note ppf
    "Note: the model's D_low includes the final checkpoint/RR exchange; the\n\
     simulated time runs to the last delivery, so the model is an upper bound."
