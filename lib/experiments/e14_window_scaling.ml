let name = "E14 HDLC window scaling towards BDP"

(* The config and, per row, its point label, its row name and its
   protocol. *)
let grid ~quick =
  let n = if quick then 1000 else 4000 in
  let cfg = { Scenario.default with Scenario.n_frames = n } in
  let windows =
    if quick then [ (63, 7); (2047, 12) ]
    else [ (63, 7); (255, 9); (1023, 11); (2047, 12); (4095, 13) ]
  in
  ( cfg,
    List.map
      (fun (window, seq_bits) ->
        ( Printf.sprintf "w=%d/hdlc" window,
          Printf.sprintf "%d (%d)" window seq_bits,
          Scenario.Hdlc
            { (Scenario.default_hdlc_params cfg) with Hdlc.Params.window; seq_bits }
        ))
      windows
    @ [
        ( "lams",
          "lams (unbounded)",
          Scenario.Lams (Scenario.default_lams_params cfg) );
      ] )

let points ~quick =
  let cfg, rows = grid ~quick in
  List.map
    (fun (label, _, protocol) -> Scenario.matrix_point ~label cfg protocol)
    rows

(* The receive-buffer peak is not a matrix metric yet, so this report
   runs its own sessions, at the default seed, and reads no matrix. *)
let report ~quick _ ppf =
  Report.section ppf ~id:"E14" ~title:"HDLC window scaling towards the BDP";
  let cfg, rows = grid ~quick in
  let bdp = Scenario.rtt cfg /. Scenario.t_f cfg in
  Format.fprintf ppf "bandwidth-delay product = %.0f frames@." bdp;
  let table =
    Stats.Table.create
      ~header:
        [
          "window (seq_bits)";
          "efficiency";
          "recv buffer peak";
          "send buffer peak";
        ]
  in
  List.iter
    (fun (_, row, protocol) ->
      let r = Scenario.run cfg protocol in
      let m = r.Scenario.metrics in
      Stats.Table.add_row table
        [
          row;
          Printf.sprintf "%.4f" r.Scenario.efficiency;
          string_of_int m.Dlc.Metrics.recv_buffer_peak;
          string_of_int m.Dlc.Metrics.send_buffer_peak;
        ])
    rows;
  Report.table ppf table;
  Report.note ppf
    "Expect: HDLC efficiency climbs with the window and approaches LAMS\n\
     only near BDP-sized windows — at the price of a BDP-sized receive\n\
     buffer for in-order delivery, which LAMS-DLC's relaxed sequencing\n\
     never needs (paper §2.3)."
