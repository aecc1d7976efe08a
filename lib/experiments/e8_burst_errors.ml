let name = "E8 burst errors (Gilbert-Elliott)"

(* Mispointing takes down the whole optical head, so a burst must hit
   both directions at once: all four error-model slots of the duplex
   share ONE Gilbert-Elliott state (unlike Duplex.create, which copies).
   Only under that correlation can a burst silence the checkpoint stream
   and exercise the C_depth * W_cp coverage condition of §3.3. *)
let shared_burst_duplex engine ~seed ~cfg ~model =
  let mk () =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed)
      ~distance:(Channel.Link.Fixed cfg.Scenario.distance_m)
      ~data_rate_bps:cfg.Scenario.data_rate_bps ~iframe_error:model
      ~cframe_error:model
  in
  { Channel.Duplex.forward = mk (); reverse = mk () }

let run_one ~cfg ~burst_frames ~protocol =
  let frame_bits = float_of_int (Scenario.iframe_bits cfg) in
  (* ber_bad = 0.5 models full tracking loss: during a burst nothing
     survives, not even short control frames — the §3.3 scenario. The
     gap is held constant (about six burst events per run) so the sweep
     varies burst *length*, not burst frequency. *)
  let gap_frames = float_of_int cfg.Scenario.n_frames /. 6. in
  (* both directions advance the shared chain over the same wall-clock
     span, so sojourns are consumed twice as fast; the 2x restores the
     intended durations *)
  let model =
    Channel.Error_model.gilbert_elliott ~ber_good:1e-7 ~ber_bad:0.5
      ~mean_burst_bits:(2. *. burst_frames *. frame_bits)
      ~mean_gap_bits:(2. *. gap_frames *. frame_bits)
      ()
  in
  let session =
    match protocol with
    | `Lams -> `Lams (Scenario.default_lams_params cfg)
    | `Hdlc -> `Hdlc (Scenario.default_hdlc_params cfg)
  in
  let r, _ =
    Scenario.run_session
      ~duplex:(fun engine ->
        shared_burst_duplex engine ~seed:cfg.Scenario.seed ~cfg ~model)
      cfg session
  in
  let m = r.Scenario.metrics in
  [
    ( "efficiency",
      Dlc.Metrics.throughput_efficiency m ~iframe_time:(Scenario.t_f cfg) );
    ("loss", float_of_int (Dlc.Metrics.loss m));
    ("enforced_recoveries", float_of_int m.Dlc.Metrics.enforced_recoveries);
    (* both senders count a declaration as they set their failed flag *)
    ("failed", if m.Dlc.Metrics.failures_detected > 0 then 1. else 0.);
    ("delivered", float_of_int (Dlc.Metrics.unique_delivered m));
  ]

let bursts ~quick = if quick then [ 4.; 64. ] else [ 1.; 4.; 16.; 64.; 256. ]

let config ~quick =
  let n = if quick then 500 else 2000 in
  { Scenario.default with Scenario.n_frames = n; horizon = 120. }

let label burst_frames tag = Printf.sprintf "burst=%g/%s" burst_frames tag

let points ~quick =
  let cfg = config ~quick in
  List.concat_map
    (fun burst_frames ->
      List.map
        (fun (tag, protocol) ->
          {
            Runner.label = label burst_frames tag;
            run =
              (fun ~seed ->
                run_one ~cfg:{ cfg with Scenario.seed } ~burst_frames ~protocol);
          })
        [ ("lams", `Lams); ("hdlc", `Hdlc) ])
    (bursts ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E8" ~title:"burst errors (Gilbert-Elliott, correlated)";
  let cfg = config ~quick in
  let lams_params = Scenario.default_lams_params cfg in
  let coverage =
    float_of_int lams_params.Lams_dlc.Params.c_depth
    *. lams_params.Lams_dlc.Params.w_cp /. Scenario.t_f cfg
  in
  Format.fprintf ppf
    "cumulative NAK coverage C_depth*W_cp = %.0f frame times; bursts hit both directions@."
    coverage;
  let table =
    Stats.Table.create
      ~header:
        [
          "burst (frames)";
          "lams eff";
          "lams loss";
          "lams enforced";
          "lams failed";
          "hdlc eff";
          "hdlc loss";
          "hdlc failed";
        ]
  in
  List.iter
    (fun burst_frames ->
      let lams = Report.cell e (label burst_frames "lams") in
      let hdlc = Report.cell e (label burst_frames "hdlc") in
      Stats.Table.add_row table
        [
          Printf.sprintf "%g" burst_frames;
          lams "efficiency";
          lams "loss";
          lams "enforced_recoveries";
          lams "failed";
          hdlc "efficiency";
          hdlc "loss";
          hdlc "failed";
        ])
    (bursts ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: lams loss = 0 while bursts stay under the C_depth*W_cp\n\
     coverage and recovery is plain checkpoint recovery (enforced = 0);\n\
     bursts beyond the coverage silence the checkpoint stream and surface\n\
     as enforced recoveries; hdlc leans on timeouts throughout."
