let name = "E4 transparent buffer size"

let base = { Scenario.default with Scenario.ber = 1e-5 }

(* sustainable goodput is (1-P_F)/t_f (retransmissions consume the
   rest); offering 95% of it lets a bounded protocol reach steady state
   while an unbounded one keeps accumulating *)
let input_rate link = 0.95 *. (1. -. link.Analysis.Common.p_f) /. Scenario.t_f base

let ns ~quick = if quick then [ 2000; 4000 ] else [ 2000; 5000; 10000; 20000 ]

let label n tag = Printf.sprintf "n=%d/%s" n tag

let points ~quick =
  let link = Scenario.analytic_link base ~protocol_kind:`Lams in
  let rate = input_rate link in
  List.concat_map
    (fun n ->
      let cfg =
        { base with Scenario.n_frames = n; traffic = `Rate rate; horizon = 120. }
      in
      [
        Scenario.matrix_point ~label:(label n "lams") cfg
          (Scenario.Lams (Scenario.default_lams_params cfg));
        Scenario.matrix_point ~label:(label n "hdlc") cfg
          (Scenario.Hdlc (Scenario.default_hdlc_params cfg));
      ])
    (ns ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E4"
    ~title:"transparent buffer size (near-line-rate input)";
  let link = Scenario.analytic_link base ~protocol_kind:`Lams in
  let b_model =
    Analysis.Lams_model.transparent_buffer link
      ~i_cp:(Scenario.default_lams_params base).Lams_dlc.Params.w_cp
  in
  Format.fprintf ppf
    "model: B_LAMS = %.0f frames, B_HDLC = infinity; input %.0f frames/s@."
    b_model (input_rate link);
  let table =
    Stats.Table.create
      ~header:[ "protocol"; "N offered"; "mean occupancy"; "peak"; "loss" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun tag ->
          let cell = Report.cell e (label n tag) in
          Stats.Table.add_row table
            [
              Printf.sprintf "%s N=%d" tag n;
              string_of_int n;
              cell "send_buffer_mean";
              cell "send_buffer_peak";
              cell "loss";
            ])
        [ "lams"; "hdlc" ])
    (ns ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: LAMS-DLC occupancy plateaus near B_LAMS regardless of N;\n\
     SR-HDLC's peak keeps growing with N (no transparent size exists)."
