let name = "E7 ablation: w_cp and c_depth"

(* the elevated control-frame BER makes checkpoint losses frequent
   enough for the cumulation depth to matter *)
let grid ~quick =
  let n = if quick then 500 else 2000 in
  let cfg = { Scenario.default with Scenario.n_frames = n; cframe_ber = 1e-4 } in
  let w_cps = if quick then [ 16; 256 ] else [ 16; 64; 256; 1024 ] in
  let depths = if quick then [ 1; 3 ] else [ 1; 2; 3; 5 ] in
  ( cfg,
    List.concat_map
      (fun w_mult -> List.map (fun depth -> (w_mult, depth)) depths)
      w_cps )

let label (w_mult, depth) = Printf.sprintf "w_cp=%d/c_depth=%d" w_mult depth

let points ~quick =
  let cfg, cells = grid ~quick in
  List.map
    (fun ((w_mult, depth) as c) ->
      let params =
        {
          Lams_dlc.Params.default with
          Lams_dlc.Params.w_cp = float_of_int w_mult *. Scenario.t_f cfg;
          c_depth = depth;
        }
      in
      Scenario.matrix_point ~label:(label c) cfg (Scenario.Lams params))
    cells

let report ~quick e ppf =
  Report.section ppf ~id:"E7" ~title:"ablation of w_cp and c_depth";
  let table =
    Stats.Table.create
      ~header:
        [
          "w_cp(x t_f) / c_depth";
          "efficiency";
          "holding s";
          "ctrl frames";
          "enforced";
          "loss";
        ]
  in
  List.iter
    (fun ((w_mult, depth) as c) ->
      let cell = Report.cell e (label c) in
      Stats.Table.add_row table
        [
          Printf.sprintf "%d / %d" w_mult depth;
          cell "efficiency";
          cell "holding_time_mean";
          cell "control_sent";
          cell "enforced_recoveries";
          cell "loss";
        ])
    (snd (grid ~quick));
  Report.table ppf table;
  Report.note ppf
    "Expect: holding time grows with w_cp; control frames shrink with w_cp;\n\
     c_depth=1 risks enforced recoveries under checkpoint loss; loss = 0\n\
     everywhere (the zero-loss guarantee)."
