let name = "E3 LAMS-DLC holding time H_frame"

(* The two sweeps: BER at the default checkpoint interval, then the
   checkpoint interval at the default BER. Per point: its label, its row
   name, its config and its params. *)
let sweeps ~quick =
  let n_frames = if quick then 300 else 2000 in
  ( List.map
      (fun ber ->
        let cfg = { Scenario.default with Scenario.ber; n_frames } in
        ( Printf.sprintf "ber=%g" ber,
          Printf.sprintf "%g" ber,
          cfg,
          Scenario.default_lams_params cfg ))
      (if quick then [ 1e-6; 1e-4 ] else [ 1e-6; 1e-5; 3e-5; 1e-4 ]),
    List.map
      (fun mult ->
        let cfg = { Scenario.default with Scenario.n_frames } in
        let w_cp = float_of_int mult *. Scenario.t_f cfg in
        ( Printf.sprintf "w_cp=%dtf" mult,
          string_of_int mult,
          cfg,
          { Lams_dlc.Params.default with Lams_dlc.Params.w_cp } ))
      (if quick then [ 16; 256 ] else [ 16; 64; 256; 1024 ]) )

let points ~quick =
  let bers, w_cps = sweeps ~quick in
  List.map
    (fun (label, _, cfg, params) ->
      Scenario.matrix_point ~label cfg (Scenario.Lams params))
    (bers @ w_cps)

let report ~quick e ppf =
  Report.section ppf ~id:"E3" ~title:"LAMS-DLC mean holding time H_frame";
  let table header sweep =
    let t = Stats.Table.create ~header:[ header; "H model s"; "H sim s"; "ratio" ] in
    List.iter
      (fun (label, row, cfg, params) ->
        let link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
        let model =
          Analysis.Lams_model.holding_time link ~i_cp:params.Lams_dlc.Params.w_cp
        in
        Stats.Table.add_row t
          [
            row;
            Printf.sprintf "%.6g" model;
            Report.cell e label "holding_time_mean";
            Printf.sprintf "%.6g"
              (Report.ratio (Report.mean e label "holding_time_mean") model);
          ])
      sweep;
    Report.table ppf t
  in
  let bers, w_cps = sweeps ~quick in
  table "ber" bers;
  table "w_cp (frame times)" w_cps
