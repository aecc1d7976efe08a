let name = "E11 retransmission probability (NAK-only advantage)"

(* Per BER: P_F of an I-frame, the LAMS config and the HDLC config. *)
let grid ~quick =
  let n = if quick then 500 else 3000 in
  List.map
    (fun ber ->
      let base = { Scenario.default with Scenario.ber; n_frames = n } in
      let p_f =
        Analysis.Common.p_any_error ~ber ~bits:(Scenario.iframe_bits base)
      in
      (* degrade HDLC's supervisory frames until they fail as often as an
         I-frame — the piggybacking equivalence *)
      let hdlc_cfg =
        {
          base with
          Scenario.cframe_ber =
            Channel.Error_model.ber_for_frame_error_prob
              ~bits:(Scenario.cframe_bits ~protocol_kind:`Hdlc)
              ~fer:p_f;
        }
      in
      (* LAMS keeps assumption 4: strongly coded commands *)
      (ber, p_f, { base with Scenario.cframe_ber = 1e-9 }, hdlc_cfg))
    (if quick then [ 1e-5 ] else [ 3e-6; 1e-5; 3e-5; 1e-4 ])

let label ber tag = Printf.sprintf "ber=%g/%s" ber tag

let points ~quick =
  List.concat_map
    (fun (ber, _, lams_cfg, hdlc_cfg) ->
      [
        Scenario.matrix_point ~label:(label ber "lams") lams_cfg
          (Scenario.Lams (Scenario.default_lams_params lams_cfg));
        Scenario.matrix_point ~label:(label ber "hdlc") hdlc_cfg
          (Scenario.Hdlc (Scenario.default_hdlc_params hdlc_cfg));
      ])
    (grid ~quick)

(* per-transmission retransmission fraction *)
let sim_p_r e label =
  let m = Report.mean e label in
  Report.ratio (m "retransmissions") (m "iframes_sent" +. m "retransmissions")

(* Runs at [label] that stopped before delivering every frame: their
   P_R counts only what was sent before the stop, and measures no
   steady state. *)
let aborted e label =
  let runs = Report.count e label "completed" in
  runs - Float.to_int (Float.round (float runs *. Report.mean e label "completed"))

let sim_cell e label ~n_frames =
  let cell = Printf.sprintf "%.6g" (sim_p_r e label) in
  let delivered = Report.mean e label "delivered" in
  match (aborted e label, Report.count e label "completed") with
  | 0, _ -> cell
  | 1, 1 -> Printf.sprintf "%s ABORTED (%g of %d delivered)" cell delivered n_frames
  | k, runs ->
      Printf.sprintf "%s ABORTED in %d of %d runs (mean %g of %d delivered)" cell k
        runs delivered n_frames

let report ~quick e ppf =
  Report.section ppf ~id:"E11"
    ~title:"retransmission probability: NAK-only vs pos-ack (P_C = P_F)";
  Report.note ppf
    "Per paper §2: HDLC's (piggybacked) acknowledgements fail as often as\n\
     I-frames (P_C = P_F), giving P_R = 2P_F - P_F^2; LAMS-DLC commands ride\n\
     their own strong FEC (assumption 4) and only the I-frame loss counts,\n\
     P_R = P_F. The HDLC control channel is degraded accordingly; the LAMS\n\
     one keeps its designed coding.";
  let table =
    Stats.Table.create
      ~header:
        [
          "ber";
          "P_F";
          "lams P_R model";
          "lams P_R sim";
          "hdlc P_R model";
          "hdlc P_R sim";
        ]
  in
  List.iter
    (fun (ber, p_f, (cfg : Scenario.config), _) ->
      let cell tag = sim_cell e (label ber tag) ~n_frames:cfg.n_frames
      and num = Printf.sprintf "%.6g" in
      Stats.Table.add_row table
        [
          Printf.sprintf "%g" ber;
          num p_f;
          num p_f;
          cell "lams";
          num (p_f +. p_f -. (p_f *. p_f));
          cell "hdlc";
        ])
    (grid ~quick);
  Report.table ppf table;
  let flagged tag =
    List.exists (fun (ber, _, _, _) -> aborted e (label ber tag) > 0) (grid ~quick)
  in
  if flagged "lams" || flagged "hdlc" then
    Report.note ppf
      "ABORTED: a run stopped before delivering every frame, so that cell's\n\
       P_R covers only the transmissions made before the stop and is left\n\
       out of the comparison below.";
  if flagged "hdlc" then
    Report.note ppf "SR-HDLC stops once a frame's N2 retries are exhausted.";
  Report.note ppf
    "The HDLC sim sits between P_F and the model because cumulative RRs\n\
     let a later acknowledgement repair a lost one — real HDLC is kinder\n\
     than the paper's per-frame-ack model. The LAMS sim tracks P_F\n\
     directly across the sweep, confirming P_R = P_F for NAK-only control."
