(* Integration tests: simulation-vs-model agreement and end-to-end
   cross-protocol comparisons — the claims the experiments rely on,
   asserted with tolerances so regressions fail loudly. *)

let test_lams_sim_matches_model_s_bar () =
  let cfg = { Experiments.Scenario.default with Experiments.Scenario.n_frames = 2000 } in
  let r =
    Experiments.Scenario.run cfg
      (Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg))
  in
  let m = r.Experiments.Scenario.metrics in
  let sim_s =
    float_of_int (m.Dlc.Metrics.iframes_sent + m.Dlc.Metrics.retransmissions)
    /. float_of_int (Dlc.Metrics.unique_delivered m)
  in
  let link = Experiments.Scenario.analytic_link cfg ~protocol_kind:`Lams in
  let model_s = Analysis.Lams_model.s_bar link in
  let ratio = sim_s /. model_s in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "s_bar sim %g vs model %g (ratio %g)" sim_s model_s ratio

let test_lams_sim_matches_model_holding () =
  let cfg = Experiments.Scenario.default in
  let params = Experiments.Scenario.default_lams_params cfg in
  let r = Experiments.Scenario.run cfg (Experiments.Scenario.Lams params) in
  let sim = Stats.Online.mean r.Experiments.Scenario.metrics.Dlc.Metrics.holding_time in
  let link = Experiments.Scenario.analytic_link cfg ~protocol_kind:`Lams in
  let model =
    Analysis.Lams_model.holding_time link ~i_cp:params.Lams_dlc.Params.w_cp
  in
  let ratio = sim /. model in
  if ratio < 0.85 || ratio > 1.15 then
    Alcotest.failf "holding sim %g vs model %g" sim model

let test_headline_speedup_in_simulation () =
  let cfg = { Experiments.Scenario.default with Experiments.Scenario.n_frames = 2000 } in
  let lams =
    Experiments.Scenario.run cfg
      (Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg))
  in
  let hdlc =
    Experiments.Scenario.run cfg
      (Experiments.Scenario.Hdlc (Experiments.Scenario.default_hdlc_params cfg))
  in
  Alcotest.(check bool) "both complete" true
    (lams.Experiments.Scenario.completed && hdlc.Experiments.Scenario.completed);
  let speedup =
    lams.Experiments.Scenario.efficiency /. hdlc.Experiments.Scenario.efficiency
  in
  if speedup < 3. then
    Alcotest.failf "expected LAMS >> SR-HDLC at high traffic, speedup %g" speedup

let test_gbn_worse_than_sr_in_simulation () =
  let cfg = { Experiments.Scenario.default with Experiments.Scenario.n_frames = 1000 } in
  let sr =
    Experiments.Scenario.run cfg
      (Experiments.Scenario.Hdlc (Experiments.Scenario.default_hdlc_params cfg))
  in
  let gbn_params =
    { (Experiments.Scenario.default_hdlc_params cfg) with
      Hdlc.Params.mode = Hdlc.Params.Go_back_n }
  in
  let gbn = Experiments.Scenario.run cfg (Experiments.Scenario.Hdlc gbn_params) in
  let sr_retx = sr.Experiments.Scenario.metrics.Dlc.Metrics.retransmissions in
  let gbn_retx = gbn.Experiments.Scenario.metrics.Dlc.Metrics.retransmissions in
  if gbn_retx <= sr_retx then
    Alcotest.failf "GBN retx %d should exceed SR retx %d" gbn_retx sr_retx

let test_sim_retransmission_rate_tracks_p_f () =
  let cfg =
    { Experiments.Scenario.default with Experiments.Scenario.ber = 3e-5; n_frames = 3000 }
  in
  let r =
    Experiments.Scenario.run cfg
      (Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg))
  in
  let m = r.Experiments.Scenario.metrics in
  let total = m.Dlc.Metrics.iframes_sent + m.Dlc.Metrics.retransmissions in
  let sim_p_r = float_of_int m.Dlc.Metrics.retransmissions /. float_of_int total in
  let link = Experiments.Scenario.analytic_link cfg ~protocol_kind:`Lams in
  let p_f = link.Analysis.Common.p_f in
  if Float.abs (sim_p_r -. p_f) > 0.25 *. p_f then
    Alcotest.failf "sim P_R %g vs P_F %g" sim_p_r p_f

let test_numbering_span_within_bound () =
  let cfg =
    { Experiments.Scenario.default with Experiments.Scenario.ber = 3e-5; n_frames = 3000 }
  in
  let params = Experiments.Scenario.default_lams_params cfg in
  let r = Experiments.Scenario.run cfg (Experiments.Scenario.Lams params) in
  let link = Experiments.Scenario.analytic_link cfg ~protocol_kind:`Lams in
  let bound =
    Analysis.Lams_model.numbering_size link ~i_cp:params.Lams_dlc.Params.w_cp
      ~c_depth:params.Lams_dlc.Params.c_depth
  in
  let pipe =
    Experiments.Scenario.rtt cfg /. 2. /. Experiments.Scenario.t_f cfg
  in
  let span = float_of_int r.Experiments.Scenario.span_peak in
  if span > bound +. pipe then
    Alcotest.failf "span %g exceeds bound %g + pipe %g" span bound pipe

let test_burst_channel_zero_loss () =
  let burst =
    {
      Experiments.Scenario.ber_good = 1e-7;
      ber_bad = 1e-3;
      mean_burst_bits = 40. *. 8296.;
      mean_gap_bits = 400. *. 8296.;
    }
  in
  let cfg =
    {
      Experiments.Scenario.default with
      Experiments.Scenario.burst = Some burst;
      n_frames = 1000;
      horizon = 120.;
    }
  in
  let r =
    Experiments.Scenario.run cfg
      (Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg))
  in
  Alcotest.(check bool) "completed through bursts" true r.Experiments.Scenario.completed;
  Alcotest.(check int) "zero loss" 0 (Dlc.Metrics.loss r.Experiments.Scenario.metrics)

let test_fec_pipeline_with_channel_errors () =
  (* bit-level integration: conv+interleaver code over a Gilbert-Elliott
     bit pattern applied directly to the coded stream; moderate bursts
     within interleaver reach are corrected *)
  let rng = Sim.Rng.create ~seed:8 in
  let il = Fec.Interleaver.create ~rows:16 ~cols:32 in
  let code = Fec.Code.with_interleaver il Fec.Code.conv_default in
  let data = String.init 64 (fun i -> Char.chr (33 + (i mod 90))) in
  let src = Fec.Bitbuf.of_string data in
  let data_bits = Fec.Bitbuf.length src in
  let ok = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    let tx = code.Fec.Code.encode src in
    (* inject one burst of <= 8 errors at a random offset *)
    let n = Fec.Bitbuf.length tx in
    let start = Sim.Rng.int rng (n - 8) in
    for b = start to start + 7 do
      Fec.Bitbuf.set tx b (not (Fec.Bitbuf.get tx b))
    done;
    let decoded = code.Fec.Code.decode tx ~data_bits in
    if Test_fec.bits_equal src decoded then incr ok
  done;
  if !ok < trials then
    Alcotest.failf "interleaved FEC corrected only %d/%d bursts" !ok trials

let test_deterministic_replay () =
  (* identical seeds must give bit-identical metrics across protocols --
     the property every regression comparison in this repo leans on *)
  let run protocol =
    let cfg = { Experiments.Scenario.default with Experiments.Scenario.n_frames = 500 } in
    let r = Experiments.Scenario.run cfg protocol in
    let m = r.Experiments.Scenario.metrics in
    ( m.Dlc.Metrics.iframes_sent,
      m.Dlc.Metrics.retransmissions,
      m.Dlc.Metrics.delivered,
      r.Experiments.Scenario.elapsed )
  in
  let lams () =
    run (Experiments.Scenario.Lams
           (Experiments.Scenario.default_lams_params Experiments.Scenario.default))
  in
  let hdlc () =
    run (Experiments.Scenario.Hdlc
           (Experiments.Scenario.default_hdlc_params Experiments.Scenario.default))
  in
  Alcotest.(check bool) "lams replay identical" true (lams () = lams ());
  Alcotest.(check bool) "hdlc replay identical" true (hdlc () = hdlc ())

let test_soak_50k_frames () =
  (* long-haul stability: 50k frames through a lossy link; zero loss,
     bounded buffers *)
  let base =
    {
      Experiments.Scenario.default with
      Experiments.Scenario.n_frames = 50_000;
      ber = 2e-5;
      horizon = 120.;
    }
  in
  let link0 = Experiments.Scenario.analytic_link base ~protocol_kind:`Lams in
  (* paced just under goodput so the buffer claim (not the open-loop
     dump) is what the soak exercises *)
  let rate =
    0.95 *. (1. -. link0.Analysis.Common.p_f) /. Experiments.Scenario.t_f base
  in
  let cfg = { base with Experiments.Scenario.traffic = `Rate rate } in
  let params = Experiments.Scenario.default_lams_params cfg in
  let r = Experiments.Scenario.run cfg (Experiments.Scenario.Lams params) in
  Alcotest.(check bool) "completed" true r.Experiments.Scenario.completed;
  Alcotest.(check int) "zero loss" 0 (Dlc.Metrics.loss r.Experiments.Scenario.metrics);
  Alcotest.(check int) "zero duplicates" 0
    r.Experiments.Scenario.metrics.Dlc.Metrics.duplicates;
  let link = Experiments.Scenario.analytic_link cfg ~protocol_kind:`Lams in
  let b_model =
    Analysis.Lams_model.transparent_buffer link ~i_cp:params.Lams_dlc.Params.w_cp
  in
  let peak = r.Experiments.Scenario.metrics.Dlc.Metrics.send_buffer_peak in
  if float_of_int peak > 2. *. b_model then
    Alcotest.failf "buffer peak %d far beyond transparent size %.0f" peak b_model

let test_frame_conservation () =
  (* accounting invariant across protocol and channel: every data frame
     the protocol counts as sent appears in the link's ledger, and every
     link-level fate (delivered, lost) adds up *)
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed:4)
      ~distance_m:2_000_000. ~data_rate_bps:100e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:1e-4 ~frame_loss:0.01 ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:1e-7 ())
  in
  let session =
    Lams_dlc.Session.create engine ~params:Lams_dlc.Params.default ~duplex
  in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload:_ -> ());
  for i = 0 to 499 do
    ignore (dlc.Dlc.Session.offer (Workload.Arrivals.default_payload ~size:512 i) : bool)
  done;
  Sim.Engine.run engine ~until:60.;
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine;
  let m = dlc.Dlc.Session.metrics in
  let fwd = Channel.Link.stats duplex.Channel.Duplex.forward in
  Alcotest.(check int) "protocol sends = link sends"
    (m.Dlc.Metrics.iframes_sent + m.Dlc.Metrics.retransmissions)
    fwd.Channel.Link.frames_sent;
  Alcotest.(check int) "sent = delivered + lost"
    fwd.Channel.Link.frames_sent
    (fwd.Channel.Link.frames_delivered + fwd.Channel.Link.frames_lost);
  Alcotest.(check bool) "corrupted subset of delivered" true
    (fwd.Channel.Link.frames_corrupted <= fwd.Channel.Link.frames_delivered)

let test_experiment_registry () =
  Alcotest.(check int) "twenty-four experiments" 24
    (List.length Experiments.All.all);
  (match Experiments.All.find "E5" with
  | Some e -> Alcotest.(check string) "id" "e5" e.Experiments.All.id
  | None -> Alcotest.fail "E5 missing");
  Alcotest.(check bool) "unknown id" true (Experiments.All.find "nope" = None)

let suite =
  [
    Alcotest.test_case "sim matches model: s_bar" `Slow test_lams_sim_matches_model_s_bar;
    Alcotest.test_case "sim matches model: holding" `Slow
      test_lams_sim_matches_model_holding;
    Alcotest.test_case "headline speedup" `Slow test_headline_speedup_in_simulation;
    Alcotest.test_case "GBN worse than SR" `Slow test_gbn_worse_than_sr_in_simulation;
    Alcotest.test_case "sim P_R tracks P_F" `Slow test_sim_retransmission_rate_tracks_p_f;
    Alcotest.test_case "numbering span bound" `Slow test_numbering_span_within_bound;
    Alcotest.test_case "burst channel zero loss" `Slow test_burst_channel_zero_loss;
    Alcotest.test_case "FEC pipeline vs bursts" `Quick test_fec_pipeline_with_channel_errors;
    Alcotest.test_case "frame conservation" `Quick test_frame_conservation;
    Alcotest.test_case "deterministic replay" `Slow test_deterministic_replay;
    Alcotest.test_case "soak: 50k frames" `Slow test_soak_50k_frames;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
  ]
