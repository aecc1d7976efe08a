type protocol = Lams of Lams_dlc.Params.t | Hdlc of Hdlc.Params.t

type burst = {
  ber_good : float;
  ber_bad : float;
  mean_burst_bits : float;
  mean_gap_bits : float;
}

type config = {
  seed : int;
  distance_m : float;
  data_rate_bps : float;
  payload_bytes : int;
  ber : float;
  cframe_ber : float;
  burst : burst option;
  n_frames : int;
  traffic : [ `Saturating | `Rate of float ];
  horizon : float;
  blackout : (float * float) option;
  channel_trace : Channel.Trace_model.data option;
}

(* Process-wide trace default for the CLI's --channel-trace flag: a
   config with [channel_trace = None] picks it up. Resolved into the
   config at the top of [run_watched], before fingerprinting, so
   content-addressed captures still key on the effective channel. Set
   before launching runs; worker domains only read it. *)
let default_channel_trace : Channel.Trace_model.data option ref = ref None

let set_default_channel_trace d = default_channel_trace := d

let resolve_trace cfg =
  match (cfg.channel_trace, !default_channel_trace) with
  | None, Some d -> { cfg with channel_trace = Some d }
  | _ -> cfg

let default =
  {
    seed = 1;
    distance_m = 4_000_000.;
    data_rate_bps = 300e6;
    payload_bytes = 1024;
    ber = 1e-5;
    cframe_ber = 1e-5;
    burst = None;
    n_frames = 2000;
    traffic = `Saturating;
    horizon = 60.;
    blackout = None;
    channel_trace = None;
  }

type result = {
  metrics : Dlc.Metrics.t;
  elapsed : float;
  sim_time : float;
  completed : bool;
  sender_backlog : int;
  span_peak : int;
  efficiency : float;
}

let iframe_bits cfg = 8 * (cfg.payload_bytes + Frame.Wire.iframe_overhead_bytes)

let cframe_bits ~protocol_kind =
  match protocol_kind with
  | `Lams -> 8 * Frame.Wire.cframe_base_bytes
  | `Hdlc -> 8 * Frame.Wire.hframe_bytes

let t_f cfg = float_of_int (iframe_bits cfg) /. cfg.data_rate_bps

let rtt cfg = 2. *. cfg.distance_m /. Channel.Link.speed_of_light

let effective_ber cfg =
  match ((resolve_trace cfg).channel_trace, cfg.burst) with
  | Some data, _ ->
      (* the BER whose uniform model matches the trace's empirical
         frame-error rate — keeps the §4 analytic overlays meaningful *)
      let fer = Float.min (Channel.Trace_model.error_rate data) 0.999 in
      Channel.Error_model.ber_for_frame_error_prob ~bits:(iframe_bits cfg) ~fer
  | None, None -> cfg.ber
  | None, Some b ->
      (* stationary average of the two-state chain *)
      let pi_bad = b.mean_burst_bits /. (b.mean_burst_bits +. b.mean_gap_bits) in
      (pi_bad *. b.ber_bad) +. ((1. -. pi_bad) *. b.ber_good)

let analytic_link cfg ~protocol_kind =
  Analysis.Common.link_of_physical ~distance_m:cfg.distance_m
    ~data_rate_bps:cfg.data_rate_bps ~iframe_bits:(iframe_bits cfg)
    ~cframe_bits:(cframe_bits ~protocol_kind)
    ~t_proc:10e-6 ~ber:(effective_ber cfg) ~cframe_ber:cfg.cframe_ber

let default_hdlc_alpha cfg = 0.5 *. rtt cfg

let default_hdlc_params cfg =
  { Hdlc.Params.default with Hdlc.Params.t_out = rtt cfg +. default_hdlc_alpha cfg }

let default_lams_params cfg =
  (* a checkpoint interval of ~64 frame times keeps command overhead tiny
     while bounding holding times well below the RTT scale *)
  { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 64. *. t_f cfg }

let error_models cfg =
  let iframe_error =
    match (cfg.channel_trace, cfg.burst) with
    | Some data, _ ->
        (* the replicate seed selects the trace window: replicates see
           distinct stretches of one recording, each fully deterministic
           (replay consumes no RNG), so --jobs stays byte-identical *)
        Channel.Trace_model.replay ~policy:Channel.Trace_model.Loop
          ~offset:cfg.seed data
    | None, None -> Channel.Error_model.uniform ~ber:cfg.ber ()
    | None, Some b ->
        Channel.Error_model.gilbert_elliott ~ber_good:b.ber_good
          ~ber_bad:b.ber_bad ~mean_burst_bits:b.mean_burst_bits
          ~mean_gap_bits:b.mean_gap_bits ()
  in
  let cframe_error = Channel.Error_model.uniform ~ber:cfg.cframe_ber () in
  (iframe_error, cframe_error)

type session =
  [ `Lams of Lams_dlc.Params.t | `Hdlc of Hdlc.Params.t | `Nbdt of Nbdt.Params.t ]

let oracle_profile cfg : session -> Oracle.profile = function
  | `Lams params ->
      Oracle.Lams
        {
          c_depth = params.Lams_dlc.Params.c_depth;
          holding_bound =
            Lams_dlc.Params.holding_bound params ~rtt:(rtt cfg)
              ~data_rate_bps:cfg.data_rate_bps;
        }
  | `Hdlc params ->
      Oracle.Hdlc
        {
          window = params.Hdlc.Params.window;
          seq_bits = params.Hdlc.Params.seq_bits;
        }
  | `Nbdt _ -> Oracle.Nbdt

let run_session ?faults ?reverse_faults ?recorder ?oracle ?corrupt ?feedback cfg
    (session : session) =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let iframe_error, cframe_error = error_models cfg in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:cfg.distance_m
      ~data_rate_bps:cfg.data_rate_bps ~iframe_error ~cframe_error
  in
  (* the corruption surface and the span peak are read on demand *)
  let dlc, probe, surface, span_peak =
    match session with
    | `Lams params ->
        let s = Lams_dlc.Session.create engine ~params ~duplex in
        ( Lams_dlc.Session.as_dlc s,
          Lams_dlc.Session.probe s,
          (fun () -> Lams_dlc.Session.corrupt_surface s),
          fun () ->
            Lams_dlc.Sender.outstanding_span_peak (Lams_dlc.Session.sender s) )
    | `Hdlc params ->
        let s = Hdlc.Session.create engine ~params ~duplex in
        ( Hdlc.Session.as_dlc s,
          Hdlc.Session.probe s,
          (fun () -> Hdlc.Session.corrupt_surface s),
          fun () -> 0 )
    | `Nbdt params ->
        let s = Nbdt.Session.create engine ~params ~duplex in
        ( Nbdt.Session.as_dlc s,
          Nbdt.Session.probe s,
          (fun () -> Nbdt.Session.corrupt_surface s),
          fun () -> 0 )
  in
  let oracle =
    match oracle with
    | None -> None
    | Some name ->
        let o = Oracle.create ~name (oracle_profile cfg session) in
        (match corrupt with
        | Some (_, k) -> Oracle.set_convergence o ~k
        | None -> ());
        Some o
  in
  (* recorder first, oracle second: a probe event and the violation it
     triggers then land in the ring in causal order *)
  (match recorder with Some r -> Trace.Recorder.attach_probe r probe | None -> ());
  (match oracle with
  | Some o -> (
      Oracle.attach o ~probe ~duplex;
      match recorder with Some r -> Trace.Recorder.attach_oracle r o | None -> ())
  | None -> ());
  let install_fault spec link ~name =
    let f = Channel.Fault.compile spec in
    (match recorder with
    | Some r -> Trace.Recorder.attach_fault r ~link:name f
    | None -> ());
    Channel.Fault.install f link;
    f
  in
  (match faults with
  | Some spec ->
      ignore
        (install_fault spec duplex.Channel.Duplex.forward ~name:"forward"
          : Channel.Fault.t)
  | None -> ());
  let reverse =
    match reverse_faults with
    | Some spec ->
        Some (install_fault spec duplex.Channel.Duplex.reverse ~name:"reverse")
    | None -> None
  in
  (match corrupt with
  | Some (schedule, _) ->
      Dlc.Corrupt.install schedule engine ~surface:(surface ()) ~probe
  | None -> ());
  (match feedback with
  | Some (fb, mark_at) -> (
      Oracle.Feedback.observe fb probe;
      (match reverse with
      | Some f ->
          Channel.Fault.set_observer f (fun ~now action _frame ->
              Oracle.Feedback.on_fault fb ~now ~lie:(Channel.Fault.is_lie action))
      | None -> ());
      (* a blackout window produces no fault hit until the next frame
         flies, so the episode opens at the scripted instant *)
      match mark_at with
      | Some at ->
          ignore
            (Sim.Engine.schedule engine ~delay:at (fun () ->
                 Oracle.Feedback.mark_disturbance fb ~now:(Sim.Engine.now engine))
              : Sim.Engine.event_id)
      | None -> ())
  | None -> ());
  (match cfg.blackout with
  | Some (start, len) ->
      ignore
        (Sim.Engine.schedule engine ~delay:start (fun () ->
             Channel.Duplex.set_down duplex)
          : Sim.Engine.event_id);
      ignore
        (Sim.Engine.schedule engine ~delay:(start +. len) (fun () ->
             Channel.Duplex.set_up duplex)
          : Sim.Engine.event_id)
  | None -> ());
  let payload = Workload.Arrivals.default_payload ~size:cfg.payload_bytes in
  let arrivals =
    match cfg.traffic with
    | `Saturating ->
        Workload.Arrivals.saturating engine ~session:dlc ~count:cfg.n_frames
          ~payload
    | `Rate r ->
        Workload.Arrivals.deterministic engine ~session:dlc ~rate:r
          ~count:cfg.n_frames ~payload
  in
  let metrics = dlc.Dlc.Session.metrics in
  (* a corruption schedule stops with its session *)
  let stop () =
    dlc.Dlc.Session.stop ();
    match corrupt with
    | Some (schedule, _) -> Dlc.Corrupt.stop schedule
    | None -> ()
  in
  (* Stop condition: all offered frames delivered (uniquely) or horizon.
     Poll with a watcher event so the run ends as soon as work is done. *)
  let finished () =
    Workload.Arrivals.finished arrivals
    && Dlc.Metrics.unique_delivered metrics >= cfg.n_frames
  in
  let rec watch () =
    if finished () then
      (* stop periodic activity so the event queue can drain and the run
         ends at the completion instant instead of the horizon *)
      stop ()
    else if Sim.Engine.now engine < cfg.horizon then
      ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id)
  in
  ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id);
  Sim.Engine.run engine ~until:cfg.horizon;
  stop ();
  Sim.Engine.run engine ~until:(cfg.horizon +. 10.);
  let elapsed = Dlc.Metrics.elapsed metrics in
  let result =
    {
      metrics;
      elapsed;
      sim_time = Sim.Engine.now engine;
      completed = Dlc.Metrics.unique_delivered metrics >= cfg.n_frames;
      sender_backlog = dlc.Dlc.Session.sender_backlog ();
      span_peak = span_peak ();
      efficiency =
        (if elapsed > 0. then
           float_of_int (Dlc.Metrics.unique_delivered metrics)
           *. t_f cfg /. elapsed
         else 0.);
    }
  in
  Option.iter Oracle.finalize oracle;
  (result, oracle)

let proto_tag = function Lams _ -> "lams" | Hdlc _ -> "hdlc"

(* Pins down everything that shapes a run's event stream. Two tasks with
   equal fingerprints (and seeds) produce byte-identical traces, so the
   content-addressed file name makes concurrent capture order-blind. *)
let trace_fingerprint ?faults ?reverse_faults ~watch cfg protocol =
  let fault_desc = function
    | None -> "-"
    | Some spec -> Channel.Fault.describe (Channel.Fault.compile spec)
  in
  String.concat "|"
    [
      Digest.to_hex (Digest.string (Marshal.to_string (cfg, protocol) []));
      fault_desc faults;
      fault_desc reverse_faults;
      string_of_bool watch;
    ]

let run_watched ?faults ?reverse_faults ?recorder ~watch cfg protocol =
  let cfg = resolve_trace cfg in
  (* with no explicit recorder, a process-wide Trace.Config enables
     capture to content-addressed files in its directory *)
  Trace.Capture.around ?recorder ~proto:(proto_tag protocol) ~seed:cfg.seed
    ~fingerprint:(fun () ->
      trace_fingerprint ?faults ?reverse_faults ~watch cfg protocol)
    (fun recorder ->
      let oracle, session =
        match protocol with
        | Lams p -> ("scenario-lams-oracle", `Lams p)
        | Hdlc p -> ("scenario-hdlc-oracle", `Hdlc p)
      in
      run_session ?faults ?reverse_faults ?recorder
        ?oracle:(if watch then Some oracle else None)
        cfg session)

let run ?recorder cfg protocol = fst (run_watched ?recorder ~watch:false cfg protocol)

let run_checked ?faults ?reverse_faults ?recorder cfg protocol =
  match run_watched ?faults ?reverse_faults ?recorder ~watch:true cfg protocol with
  | result, Some oracle -> (result, Oracle.violations oracle)
  | result, None -> (result, [])

(* --- matrix points ------------------------------------------------------ *)

(* Uniform per-replicate metric vector for the matrix runner. Every
   value is a float; booleans are 0/1 so replicate folds read as
   frequencies. *)
let matrix_metrics (r : result) =
  let m = r.metrics in
  let f = float_of_int in
  [
    ("efficiency", r.efficiency);
    ("elapsed_s", r.elapsed);
    ("delivered", f (Dlc.Metrics.unique_delivered m));
    ("loss", f (Dlc.Metrics.loss m));
    ("duplicates", f m.Dlc.Metrics.duplicates);
    ("iframes_sent", f m.Dlc.Metrics.iframes_sent);
    ("retransmissions", f m.Dlc.Metrics.retransmissions);
    ("control_sent", f m.Dlc.Metrics.control_sent);
    ("enforced_recoveries", f m.Dlc.Metrics.enforced_recoveries);
    ("holding_time_mean", Stats.Online.mean m.Dlc.Metrics.holding_time);
    ("delivery_delay_mean", Stats.Online.mean m.Dlc.Metrics.delivery_delay);
    ("send_buffer_mean", Stats.Online.mean m.Dlc.Metrics.send_buffer);
    ("send_buffer_peak", f m.Dlc.Metrics.send_buffer_peak);
    ("span_peak", f r.span_peak);
    ("completed", if r.completed then 1. else 0.);
  ]

let matrix_point ?faults ?reverse_faults ?(check = false) ~label cfg protocol =
  {
    Runner.label;
    run =
      (fun ~seed ->
        let cfg = { cfg with seed } in
        let faults =
          Option.map (fun mk -> mk ~seed) faults
        and reverse_faults = Option.map (fun mk -> mk ~seed) reverse_faults in
        if check || Option.is_some faults || Option.is_some reverse_faults
        then begin
          let r, oracle =
            run_watched ?faults ?reverse_faults ~watch:true cfg protocol
          in
          let count = Option.fold ~none:0 ~some:Oracle.violation_count oracle in
          matrix_metrics r @ [ ("oracle_violations", float_of_int count) ]
        end
        else matrix_metrics (run cfg protocol));
  }
