let name = "E9 link blackout: enforced recovery and failure detection"

type outcome = {
  halt_detected_at : float;  (* first time the sender halted, or nan *)
  recovered_at : float;  (* first un-halt after the blackout, or nan *)
  declared_failed : bool;
  loss : int;
  duplicates : int;
  delivered : int;
}

(* The LAMS sender's halt flag, kept from its probe: [Recovery_started]
   and [Failure_declared] set it and [Recovery_completed] clears it, as
   the sender does. A 0.5 ms watch samples it, so [halt_detected_at]
   and [recovered_at] are quantised to that grid. The watch stops once
   both are known, the sender has failed, or nothing else is pending. *)
let watch_halts ~horizon ~halt_at ~recover_at engine _duplex probe =
  let halted = ref false and failed = ref false in
  Dlc.Probe.listen probe
    {
      Dlc.Probe.no_handlers with
      other =
        (fun ~now:_ -> function
          | Dlc.Probe.Recovery_started -> halted := true
          | Dlc.Probe.Recovery_completed -> halted := false
          | Dlc.Probe.Failure_declared ->
              halted := true;
              failed := true
          | _ -> ());
    };
  let rec watch () =
    let now = Sim.Engine.now engine in
    if !halted && Float.is_nan !halt_at then halt_at := now;
    if
      (not (Float.is_nan !halt_at))
      && Float.is_nan !recover_at && (not !halted) && not !failed
    then recover_at := now;
    if
      now < horizon && Float.is_nan !recover_at && (not !failed)
      && Sim.Engine.pending engine > 0
    then ignore (Sim.Engine.schedule engine ~delay:5e-4 watch : Sim.Engine.event_id)
  in
  watch ()

let run_one ~blackout_start ~blackout_len ~cfg protocol =
  let cfg = { cfg with Scenario.blackout = Some (blackout_start, blackout_len) } in
  let halt_at = ref nan and recover_at = ref nan in
  let session, setup =
    match protocol with
    | `Lams ->
        (* match HDLC's N2 = 10 retry budget so the two protocols face
           the same give-up boundary *)
        ( `Lams
            {
              (Scenario.default_lams_params cfg) with
              Lams_dlc.Params.request_nak_retries = 10;
            },
          Some (watch_halts ~horizon:cfg.Scenario.horizon ~halt_at ~recover_at)
        )
    | `Hdlc -> (`Hdlc (Scenario.default_hdlc_params cfg), None)
  in
  let r, _ = Scenario.run_session ?setup cfg session in
  let m = r.Scenario.metrics in
  {
    halt_detected_at = !halt_at;
    recovered_at = !recover_at;
    declared_failed = m.Dlc.Metrics.failures_detected > 0;
    loss = Dlc.Metrics.loss m;
    duplicates = m.Dlc.Metrics.duplicates;
    delivered = Dlc.Metrics.unique_delivered m;
  }

let config ~quick =
  let n = if quick then 2000 else 10000 in
  { Scenario.default with Scenario.n_frames = n; horizon = 30. }

let blackout_start = 0.02

let blackouts ~quick = if quick then [ 0.02; 1.0 ] else [ 0.01; 0.02; 0.05; 0.2; 1.0 ]

let label blackout_len tag = Printf.sprintf "blackout=%g/%s" blackout_len tag

let points ~quick =
  let cfg = config ~quick in
  let metrics (o : outcome) =
    [
      ("halt_detected_at", o.halt_detected_at);
      ("recovered_at", o.recovered_at);
      ("declared_failed", if o.declared_failed then 1. else 0.);
      ("loss", float_of_int o.loss);
      ("duplicates", float_of_int o.duplicates);
      ("delivered", float_of_int o.delivered);
    ]
  in
  List.concat_map
    (fun blackout_len ->
      List.map
        (fun (tag, protocol) ->
          {
            Runner.label = label blackout_len tag;
            run =
              (fun ~seed ->
                metrics
                  (run_one ~blackout_start ~blackout_len
                     ~cfg:{ cfg with Scenario.seed } protocol));
          })
        [ ("lams", `Lams); ("hdlc", `Hdlc) ])
    (blackouts ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E9"
    ~title:"link blackout: enforced recovery and failure detection";
  let silence =
    Lams_dlc.Params.checkpoint_timeout (Scenario.default_lams_params (config ~quick))
  in
  Format.fprintf ppf
    "checkpoint silence threshold C_depth*W_cp = %.4f s; blackout starts at %.3f s@."
    silence blackout_start;
  let table =
    Stats.Table.create
      ~header:
        [
          "blackout s";
          "halt at s";
          "recovered at s";
          "failed";
          "loss";
          "dups";
          "delivered";
          "hdlc failed";
          "hdlc delivered";
        ]
  in
  List.iter
    (fun blackout_len ->
      let lams = Report.cell e (label blackout_len "lams") in
      let hdlc = Report.cell e (label blackout_len "hdlc") in
      Stats.Table.add_row table
        [
          Printf.sprintf "%g" blackout_len;
          lams "halt_detected_at";
          lams "recovered_at";
          lams "declared_failed";
          lams "loss";
          lams "duplicates";
          lams "delivered";
          hdlc "declared_failed";
          hdlc "delivered";
        ])
    (blackouts ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: halt within C_depth*W_cp of the blackout; short blackouts\n\
     recover with zero loss; blackouts beyond the failure timer declare\n\
     failure (frames retained, not lost)."
