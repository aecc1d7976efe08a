let name = "E23 trace replay vs calibrated twin"

(* Kuhn et al. (PAPERS.md) measure how much ARQ conclusions move when a
   recorded PHY trace replaces the synthetic model fitted to it. This
   experiment reproduces that comparison in-repo: each operating point
   records a frame-fate trace from a source channel (the E6/E8/E15/E18
   operating points, plus the scripted storm and eclipse generators),
   then runs the same LAMS session twice — (a) replaying the raw trace,
   (b) under the Gilbert-Elliott twin Channel.Calibrate fits to it — and
   tabulates the divergence. Micro-burst sources (E15) are the expected
   worst case: sub-frame burst structure is invisible to a frame-fate
   calibration. *)

type source =
  | Uniform of float
  | Ge of Scenario.burst
  | Storm
  | Eclipse

type spec = { tag : string; origin : string; source : source }

let specs ~cfg =
  let frame_bits = float_of_int (Scenario.iframe_bits cfg) in
  [
    (* BERs picked where an uncoded 1 kB frame still has a fighting
       chance: 3e-5 ~ FER 0.22 (mid E6 sweep), 1e-4 ~ FER 0.56 (the
       E18 hybrid-ARQ stress floor without its FEC) *)
    { tag = "uniform-3e-5"; origin = "E6"; source = Uniform 3e-5 };
    {
      tag = "ge-burst16f";
      origin = "E8";
      source =
        (* 16-frame full-outage bursts, ~6 burst events per trace --
           inside the C_depth*W_cp coverage E8 sweeps across *)
        Ge
          {
            Scenario.ber_good = 1e-7;
            ber_bad = 0.5;
            mean_burst_bits = 16. *. frame_bits;
            mean_gap_bits = 300. *. frame_bits;
          };
    };
    {
      tag = "ge-microburst";
      origin = "E15";
      source =
        (* sub-frame 24-bit bursts: the structure a frame-fate
           calibration cannot see *)
        Ge
          {
            Scenario.ber_good = 1e-7;
            ber_bad = 0.25;
            mean_burst_bits = 24.;
            mean_gap_bits = 4000.;
          };
    };
    { tag = "uniform-1e-4"; origin = "E18"; source = Uniform 1e-4 };
    { tag = "storm"; origin = "gen"; source = Storm };
    { tag = "eclipse"; origin = "gen"; source = Eclipse };
  ]

(* Record a trace from the source channel. The trace seed is fixed per
   point (derived from the spec tag, not the replicate), so every
   replicate replays windows of the same recording and the matrix stays
   --jobs byte-identical. *)
let make_trace ~cfg ~frames spec =
  let header_bits = 8 * Frame.Wire.iframe_overhead_bytes in
  let payload_bits = 8 * cfg.Scenario.payload_bytes in
  let seed = Sim.Rng.derive_seed ~root:23 [ "e23-trace"; spec.tag ] in
  match spec.source with
  | Storm ->
      Channel.Trace_model.mispointing_storm ~header_bits ~payload_bits
        ~calm_frames:200 ~storm_frames:30 ~ber_calm:1e-6 ~ber_storm:1e-3
        ~frames ~seed ()
  | Eclipse ->
      Channel.Trace_model.eclipse ~header_bits ~payload_bits
        ~period_frames:(frames / 2) ~ber_min:1e-6 ~ber_max:3e-4 ~frames ~seed
        ()
  | Uniform ber ->
      let model = Channel.Error_model.uniform ~ber () in
      let rng = Sim.Rng.create ~seed in
      Channel.Model.fates model rng ~header_bits ~payload_bits ~n:frames
  | Ge b ->
      let model =
        Channel.Error_model.gilbert_elliott ~ber_good:b.Scenario.ber_good
          ~ber_bad:b.Scenario.ber_bad ~mean_burst_bits:b.Scenario.mean_burst_bits
          ~mean_gap_bits:b.Scenario.mean_gap_bits ()
      in
      let rng = Sim.Rng.create ~seed in
      Channel.Model.fates model rng ~header_bits ~payload_bits ~n:frames

type outcome = {
  trace_error_rate : float;
  fit : (Channel.Calibrate.fit, string) result;
  eff_replay : float;
  eff_twin : float;
  divergence : float;  (* (twin - replay) / replay *)
  violations : int;
}

(* The calibrated-twin config: GE twin when the fit succeeds, else a
   uniform channel matching the trace's empirical frame-error rate (the
   honest fallback for degenerate traces). *)
let twin_cfg ~cfg ~trace fit =
  match fit with
  | Ok (f : Channel.Calibrate.fit) ->
      {
        cfg with
        Scenario.channel_trace = None;
        burst =
          Some
            {
              Scenario.ber_good = f.Channel.Calibrate.ber_good;
              ber_bad = f.Channel.Calibrate.ber_bad;
              mean_burst_bits = f.Channel.Calibrate.mean_burst_bits;
              mean_gap_bits = f.Channel.Calibrate.mean_gap_bits;
            };
      }
  | Error _ ->
      let fer = Float.min (Channel.Trace_model.error_rate trace) 0.999 in
      let ber =
        Channel.Error_model.ber_for_frame_error_prob
          ~bits:(Scenario.iframe_bits cfg) ~fer
      in
      { cfg with Scenario.channel_trace = None; burst = None; ber }

let study ~cfg ~trace_frames spec =
  let trace = make_trace ~cfg ~frames:trace_frames spec in
  let protocol = Scenario.Lams (Scenario.default_lams_params cfg) in
  let replay_cfg = { cfg with Scenario.channel_trace = Some trace } in
  let r_replay, v_replay = Scenario.run_checked replay_cfg protocol in
  let fit =
    Channel.Calibrate.fit ~frame_bits:(Scenario.iframe_bits cfg) trace
  in
  let r_twin, v_twin = Scenario.run_checked (twin_cfg ~cfg ~trace fit) protocol in
  let eff_replay = r_replay.Scenario.efficiency in
  let eff_twin = r_twin.Scenario.efficiency in
  {
    trace_error_rate = Channel.Trace_model.error_rate trace;
    fit;
    eff_replay;
    eff_twin;
    divergence =
      (if eff_replay > 0. then (eff_twin -. eff_replay) /. eff_replay else 0.);
    violations = List.length v_replay + List.length v_twin;
  }

let base_cfg ~quick =
  {
    Scenario.default with
    Scenario.n_frames = (if quick then 300 else 1500);
    horizon = 120.;
  }

let trace_frames cfg = 4 * cfg.Scenario.n_frames

let label spec = Printf.sprintf "%s/%s" spec.origin spec.tag

let points ~quick =
  let cfg = base_cfg ~quick in
  List.map
    (fun spec ->
      {
        Runner.label = label spec;
        run =
          (fun ~seed ->
            let cfg = { cfg with Scenario.seed } in
            let o = study ~cfg ~trace_frames:(trace_frames cfg) spec in
            [
              ("eff_replay", o.eff_replay);
              ("eff_twin", o.eff_twin);
              ("divergence", o.divergence);
              ("trace_error_rate", o.trace_error_rate);
              ( "fit_residual",
                match o.fit with
                | Ok f -> Channel.Calibrate.residual f
                | Error _ -> -1. );
              ("fit_ok", match o.fit with Ok _ -> 1. | Error _ -> 0.);
              ("oracle_violations", float_of_int o.violations);
            ]);
      })
    (specs ~cfg)

let report ~quick e ppf =
  Report.section ppf ~id:"E23"
    ~title:"trace replay vs calibrated Gilbert-Elliott twin";
  let cfg = base_cfg ~quick in
  Format.fprintf ppf
    "each point: record %d frame fates from the source channel, replay them \
     through a LAMS session (oracle-watched), then rerun under the GE twin \
     fitted by Channel.Calibrate@."
    (trace_frames cfg);
  let table =
    Stats.Table.create
      ~header:
        [
          "point";
          "trace err";
          "fit";
          "residual";
          "eff replay";
          "eff twin";
          "divergence";
          "viol";
        ]
  in
  List.iter
    (fun spec ->
      let label = label spec in
      let cell = Report.cell e label in
      let fit_ok = Report.mean e label "fit_ok" in
      Stats.Table.add_row table
        [
          label;
          cell "trace_error_rate";
          (if fit_ok = 1. then "ge" else if fit_ok = 0. then "fallback"
           else cell "fit_ok");
          (if fit_ok = 0. then "-" else cell "fit_residual");
          cell "eff_replay";
          cell "eff_twin";
          cell "divergence";
          cell "oracle_violations";
        ])
    (specs ~cfg);
  Report.table ppf table;
  Report.note ppf
    "Expect: uniform sources calibrate into near-zero divergence (their\n\
     fitted twin is as memoryless as the source); frame-scale GE bursts\n\
     recover within the run-length fit tolerance; sub-frame micro-bursts\n\
     (E15) and non-stationary sources (storm, eclipse) are where the twin\n\
     diverges -- the Kuhn et al. effect this experiment exists to show."
