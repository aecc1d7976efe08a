let name = "E1 mean periods s-bar vs BER"

let grid ~quick =
  let n_frames = if quick then 300 else 2000 in
  let bers = if quick then [ 1e-6; 1e-4 ] else [ 1e-6; 3e-6; 1e-5; 3e-5; 1e-4 ] in
  List.map (fun ber -> (ber, { Scenario.default with Scenario.ber; n_frames })) bers

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

(* (first transmissions + retransmissions) / frames delivered *)
let sim_s_bar e label =
  let m = Report.mean e label in
  Report.ratio (m "iframes_sent" +. m "retransmissions") (m "delivered")

let report ~quick e ppf =
  Report.section ppf ~id:"E1" ~title:"mean periods s-bar vs BER";
  let table =
    Stats.Table.create
      ~header:
        [ "ber"; "P_F"; "lams model"; "lams sim"; "hdlc model"; "hdlc sim" ]
  in
  List.iter
    (fun (ber, cfg) ->
      let lams_link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
      let hdlc_link = Scenario.analytic_link cfg ~protocol_kind:`Hdlc in
      Stats.Table.add_float_row table
        (Printf.sprintf "%g" ber)
        [
          lams_link.Analysis.Common.p_f;
          Analysis.Lams_model.s_bar lams_link;
          sim_s_bar e (label ber "lams");
          Analysis.Hdlc_model.s_bar hdlc_link;
          sim_s_bar e (label ber "hdlc");
        ])
    (grid ~quick);
  Report.table ppf table
