let name = "E13 ARQ family: GBN / GBN+ST / SR / SR+ST / LAMS"

let variants cfg =
  let hdlc_base = Scenario.default_hdlc_params cfg in
  [
    ( "gbn",
      Scenario.Hdlc { hdlc_base with Hdlc.Params.mode = Hdlc.Params.Go_back_n }
    );
    ( "gbn+st",
      Scenario.Hdlc
        {
          hdlc_base with
          Hdlc.Params.mode = Hdlc.Params.Go_back_n;
          stutter = true;
        } );
    ("sr", Scenario.Hdlc hdlc_base);
    ("sr+st", Scenario.Hdlc { hdlc_base with Hdlc.Params.stutter = true });
    ("lams", Scenario.Lams (Scenario.default_lams_params cfg));
  ]

let label ber tag = Printf.sprintf "ber=%g/%s" ber tag

let grid ~quick =
  List.concat_map
    (fun ber ->
      let n_frames = if quick then 500 else 2000 in
      let cfg = { Scenario.default with Scenario.ber; n_frames } in
      List.map (fun (tag, protocol) -> (ber, tag, cfg, protocol)) (variants cfg))
    (if quick then [ 1e-5 ] else [ 1e-6; 1e-5; 3e-5; 1e-4 ])

let points ~quick =
  List.map
    (fun (ber, tag, cfg, protocol) ->
      Scenario.matrix_point ~label:(label ber tag) cfg protocol)
    (grid ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E13"
    ~title:"ARQ family comparison (efficiency and retransmissions)";
  let table =
    Stats.Table.create
      ~header:[ "ber"; "protocol"; "efficiency"; "retx"; "loss"; "elapsed s" ]
  in
  List.iter
    (fun (ber, tag, _, _) ->
      let cell = Report.cell e (label ber tag) in
      Stats.Table.add_row table
        [
          Printf.sprintf "%g" ber;
          tag;
          cell "efficiency";
          cell "retransmissions";
          cell "loss";
          cell "elapsed_s";
        ])
    (grid ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: stutter buys each windowed protocol a modest gain (idle time\n\
     converted into redundant copies) at a large retransmission cost; only\n\
     LAMS-DLC removes the window stall and leads at every BER."
