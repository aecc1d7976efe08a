let name = "E17 NBDT baselines vs LAMS-DLC"

(* The rows replay [--channel-trace] as the LAMS row does. *)
let run_nbdt cfg params =
  fst (Scenario.run_session (Scenario.resolve_trace cfg) (`Nbdt params))

let row ~label (r : Scenario.result) =
  let m = r.Scenario.metrics in
  [
    label;
    Printf.sprintf "%.4f" r.Scenario.efficiency;
    Printf.sprintf "%.4f" (Stats.Online.mean m.Dlc.Metrics.holding_time);
    string_of_int m.Dlc.Metrics.send_buffer_peak;
    string_of_int m.Dlc.Metrics.retransmissions;
    string_of_int (Dlc.Metrics.loss m);
  ]

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

let points ~quick =
  List.concat_map
    (fun (ber, cfg, nbdt) ->
      List.map
        (fun (tag, params) ->
          {
            Runner.label = Printf.sprintf "ber=%g/%s" ber tag;
            run =
              (fun ~seed ->
                nbdt_metrics (run_nbdt { cfg with Scenario.seed } params));
          })
        nbdt
      @ [
          Scenario.matrix_point
            ~label:(Printf.sprintf "ber=%g/lams" ber)
            cfg
            (Scenario.Lams (Scenario.default_lams_params cfg));
        ])
    (sweep ~quick)

let run ?(quick = false) ppf =
  Report.section ppf ~id:"E17" ~title:"NBDT baselines vs LAMS-DLC";
  let table =
    Stats.Table.create
      ~header:
        [ "ber / protocol"; "efficiency"; "holding s"; "sbuf peak"; "retx"; "loss" ]
  in
  List.iter
    (fun (ber, cfg, nbdt) ->
      let lbl s = Printf.sprintf "%g %s" ber s in
      List.iter
        (fun (tag, params) ->
          Stats.Table.add_row table (row ~label:(lbl tag) (run_nbdt cfg params)))
        nbdt;
      let lams =
        Scenario.run cfg (Scenario.Lams (Scenario.default_lams_params cfg))
      in
      Stats.Table.add_row table (row ~label:(lbl "lams") lams))
    (sweep ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: continuous NBDT comes closest to LAMS-DLC (absolute numbering\n\
     already removes the window), trailing through its pos-ack release and\n\
     report-driven recovery; multiphase pays an idle stall per batch, the\n\
     cost the paper attributes to alternating phases."
