let name = "E17 NBDT baselines vs LAMS-DLC"

(* The rows replay [--channel-trace] as the LAMS row does. *)
let run_nbdt cfg params =
  fst (Scenario.run_session (Scenario.resolve_trace cfg) (`Nbdt params))

let nbdt_metrics (r : Scenario.result) =
  let m = r.Scenario.metrics in
  [
    ("efficiency", r.Scenario.efficiency);
    ("holding_time_mean", Stats.Online.mean m.Dlc.Metrics.holding_time);
    ("send_buffer_peak", float_of_int m.Dlc.Metrics.send_buffer_peak);
    ("retransmissions", float_of_int m.Dlc.Metrics.retransmissions);
    ("loss", float_of_int (Dlc.Metrics.loss m));
    ("delivered", float_of_int (Dlc.Metrics.unique_delivered m));
  ]

(* Per BER: the shared config and the two NBDT variants' params. *)
let sweep ~quick =
  List.map
    (fun ber ->
      let n_frames = if quick then 500 else 2000 in
      let cfg = { Scenario.default with Scenario.ber; n_frames } in
      let rtt = Scenario.rtt cfg in
      let continuous =
        {
          Nbdt.Params.default with
          Nbdt.Params.report_interval = 64. *. Scenario.t_f cfg;
          resend_timeout = 2. *. rtt;
          retx_cooldown = 1.2 *. rtt;
        }
      in
      ( ber,
        cfg,
        [
          ( "nbdt-multiphase",
            {
              continuous with
              Nbdt.Params.mode = Nbdt.Params.Multiphase;
              batch_size = 512;
            } );
          ("nbdt-continuous", continuous);
        ] ))
    (if quick then [ 1e-5 ] else [ 1e-6; 1e-5; 1e-4 ])

let label ber tag = Printf.sprintf "ber=%g/%s" ber tag

let points ~quick =
  List.concat_map
    (fun (ber, cfg, nbdt) ->
      List.map
        (fun (tag, params) ->
          {
            Runner.label = label ber tag;
            run =
              (fun ~seed ->
                nbdt_metrics (run_nbdt { cfg with Scenario.seed } params));
          })
        nbdt
      @ [
          Scenario.matrix_point ~label:(label ber "lams") cfg
            (Scenario.Lams (Scenario.default_lams_params cfg));
        ])
    (sweep ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E17" ~title:"NBDT baselines vs LAMS-DLC";
  let table =
    Stats.Table.create
      ~header:
        [ "ber / protocol"; "efficiency"; "holding s"; "sbuf peak"; "retx"; "loss" ]
  in
  List.iter
    (fun (ber, _, nbdt) ->
      List.iter
        (fun tag ->
          let cell = Report.cell e (label ber tag) in
          Stats.Table.add_row table
            [
              Printf.sprintf "%g %s" ber tag;
              cell "efficiency";
              cell "holding_time_mean";
              cell "send_buffer_peak";
              cell "retransmissions";
              cell "loss";
            ])
        (List.map fst nbdt @ [ "lams" ]))
    (sweep ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: continuous NBDT comes closest to LAMS-DLC (absolute numbering\n\
     already removes the window), trailing through its pos-ack release and\n\
     report-driven recovery; multiphase pays an idle stall per batch, the\n\
     cost the paper attributes to alternating phases."
