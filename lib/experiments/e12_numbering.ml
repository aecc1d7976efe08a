let name = "E12 numbering size bound"

let grid ~quick =
  let n = if quick then 1000 else 5000 in
  List.map
    (fun w_mult ->
      let cfg = { Scenario.default with Scenario.n_frames = n; ber = 3e-5 } in
      let w_cp = float_of_int w_mult *. Scenario.t_f cfg in
      (w_mult, cfg, { Lams_dlc.Params.default with Lams_dlc.Params.w_cp }))
    (if quick then [ 64 ] else [ 16; 64; 256; 1024 ])

let label w_mult = Printf.sprintf "w_cp=%dtf" w_mult

let points ~quick =
  List.map
    (fun (w_mult, cfg, params) ->
      Scenario.matrix_point ~label:(label w_mult) cfg (Scenario.Lams params))
    (grid ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E12" ~title:"numbering size bound (resolving period)";
  let table =
    Stats.Table.create
      ~header:
        [
          "w_cp (x t_f)";
          "bound (frames)";
          "observed span peak";
          "within bound";
        ]
  in
  List.iter
    (fun (w_mult, cfg, params) ->
      let link = Scenario.analytic_link cfg ~protocol_kind:`Lams in
      let bound =
        Analysis.Lams_model.numbering_size link ~i_cp:params.Lams_dlc.Params.w_cp
          ~c_depth:params.Lams_dlc.Params.c_depth
      in
      (* the analytic resolving period starts at a frame's *arrival*; the
         span also contains the frames serialised during one-way flight,
         so allow the pipe on top of the bound *)
      let pipe = Scenario.rtt cfg /. 2. /. Scenario.t_f cfg in
      Stats.Table.add_row table
        [
          string_of_int w_mult;
          Printf.sprintf "%.0f" bound;
          Report.cell e (label w_mult) "span_peak";
          string_of_bool (Report.mean e (label w_mult) "span_peak" <= bound +. pipe);
        ])
    (grid ~quick);
  Report.table ppf table
