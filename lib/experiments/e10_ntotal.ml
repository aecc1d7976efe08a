let name = "E10 transmission inflation N_total(N)"

let grid ~quick =
  List.map
    (fun n -> (n, { Scenario.default with Scenario.n_frames = n; ber = 3e-5 }))
    (if quick then [ 200; 1000 ] else [ 200; 500; 1000; 2000; 5000 ])

let label n = Printf.sprintf "n=%d" n

let points ~quick =
  List.map
    (fun (n, cfg) ->
      Scenario.matrix_point ~label:(label n) cfg
        (Scenario.Lams (Scenario.default_lams_params cfg)))
    (grid ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E10" ~title:"transmission inflation N_total(N)";
  let table =
    Stats.Table.create
      ~header:[ "N"; "recursion"; "N*s_bar"; "sim total tx"; "sim/recursion" ]
  in
  List.iter
    (fun (n, cfg) ->
      let link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
      let i_cp = (Scenario.default_lams_params cfg).Lams_dlc.Params.w_cp in
      let model = Analysis.Lams_model.n_total link ~i_cp ~n in
      let asym = float_of_int n *. Analysis.Lams_model.s_bar link in
      let m = Report.mean e (label n) in
      let sim = m "iframes_sent" +. m "retransmissions" in
      Stats.Table.add_float_row table (string_of_int n)
        [ model; asym; sim; Report.ratio sim model ])
    (grid ~quick);
  Report.table ppf table
