let name = "E22 self-stabilisation: convergence after live-state corruption"

(* A short, fast link so recovery time scales are milliseconds: the
   quantity under study is the convergence window after an injected
   state corruption, not bandwidth-delay stress. *)
let distance_m = 150_000.

let data_rate_bps = 100e6

let payload_bytes = 512

let n_frames = 400

let ber = 1e-6

let cframe_ber = 1e-7

let horizon = 0.5

let inject_at = 5e-3

let rtt = 2. *. distance_m /. Channel.Link.speed_of_light

type variant = Lams | Sr_hdlc | Nbdt_bulk

let variant_tag = function
  | Lams -> "lams"
  | Sr_hdlc -> "sr-hdlc"
  | Nbdt_bulk -> "nbdt"

let variants = [ Lams; Sr_hdlc; Nbdt_bulk ]

(* Convergence budget k, in checkpoint emissions. LAMS checkpoints and
   NBDT reports are periodic (w_cp / report_interval), so k bounds wall
   time directly; HDLC emits a supervisory frame per arriving I-frame,
   orders of magnitude faster than the recovery RTT, so its budget is
   correspondingly larger. *)
let convergence_k = function Lams -> 8 | Sr_hdlc -> 64 | Nbdt_bulk -> 8

let lams_params =
  { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3; c_depth = 3 }

let hdlc_params =
  { Hdlc.Params.default with Hdlc.Params.t_out = 1.5 *. rtt }

let nbdt_params =
  { Nbdt.Params.default with Nbdt.Params.report_interval = 1e-3 }

(* The six timed corruption classes, with canonical arguments; the
   seventh class, carryover staleness, lives in the handover run. *)
let classes : (string * Dlc.Corrupt.klass) list =
  [
    ( "seq-scramble-send",
      Dlc.Corrupt.Seq_scramble { side = Dlc.Corrupt.Send; delta = 5 } );
    ( "seq-scramble-recv",
      Dlc.Corrupt.Seq_scramble { side = Dlc.Corrupt.Recv; delta = 3 } );
    ("nak-poison", Dlc.Corrupt.Nak_poison { seqs = [ 1; 2 ] });
    ("nak-truncate", Dlc.Corrupt.Nak_truncate);
    ("buffer-duplicate", Dlc.Corrupt.Buffer_duplicate);
    ("reverse-replay", Dlc.Corrupt.Reverse_replay { copies = 2; back = 2 });
  ]

let spec_of klass = Dlc.Corrupt.Rules [ Dlc.Corrupt.rule ~at:inject_at klass ]

type outcome = {
  variant : string;
  spec : string;
  injected : int;  (** injections actually applied *)
  skipped : int;  (** injections on an inapplicable surface *)
  converged : int;  (** suspect windows closed by k clean checkpoints *)
  time_to_convergence : float;
      (** worst closed window: injection to last tolerated anomaly *)
  tolerated : int;
  declared_failure : bool;
  unconverged : bool;  (** a window was still open (with anomalies) at end *)
  completed : bool;
  delivered : int;
  violations : Oracle.violation list;
}

let max_or_zero = List.fold_left max 0.

let fingerprint ~seed ~variant spec =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ string_of_int seed; variant; Dlc.Corrupt.describe spec ]))

let run_one ?recorder ?k:k_override ?(frames = n_frames) ~seed variant spec =
  let tag = variant_tag variant in
  let corrupt = Dlc.Corrupt.compile spec in
  let capture =
    match (recorder, Trace.Config.get ()) with
    | Some _, _ | None, None -> None
    | None, Some _ ->
        Trace.Capture.start ~proto:("e22-" ^ tag) ~seed
          ~fingerprint:(fingerprint ~seed ~variant:tag corrupt)
          ()
  in
  let recorder =
    match capture with
    | Some c -> Some (Trace.Capture.recorder c)
    | None -> recorder
  in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m ~data_rate_bps
      ~iframe_error:(Channel.Error_model.uniform ~ber ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:cframe_ber ())
  in
  let session, probe, surface, profile, k =
    match variant with
    | Lams ->
        let s = Lams_dlc.Session.create engine ~params:lams_params ~duplex in
        ( Lams_dlc.Session.as_dlc s,
          Lams_dlc.Session.probe s,
          Lams_dlc.Session.corrupt_surface s,
          Oracle.Lams
            {
              c_depth = lams_params.Lams_dlc.Params.c_depth;
              holding_bound =
                Lams_dlc.Params.holding_bound lams_params ~rtt ~data_rate_bps;
            },
          convergence_k Lams )
    | Sr_hdlc ->
        let s = Hdlc.Session.create engine ~params:hdlc_params ~duplex in
        ( Hdlc.Session.as_dlc s,
          Hdlc.Session.probe s,
          Hdlc.Session.corrupt_surface s,
          Oracle.Hdlc
            {
              window = hdlc_params.Hdlc.Params.window;
              seq_bits = hdlc_params.Hdlc.Params.seq_bits;
            },
          convergence_k Sr_hdlc )
    | Nbdt_bulk ->
        let s = Nbdt.Session.create engine ~params:nbdt_params ~duplex in
        ( Nbdt.Session.as_dlc s,
          Nbdt.Session.probe s,
          Nbdt.Session.corrupt_surface s,
          Oracle.Nbdt,
          convergence_k Nbdt_bulk )
  in
  let k = Option.value k_override ~default:k in
  let oracle = Oracle.create ~name:("e22-" ^ tag) profile in
  Oracle.set_convergence oracle ~k;
  (* recorder first, oracle second, so a probe event and the violation it
     triggers land in the flight ring in causal order *)
  (match recorder with
  | Some r -> Trace.Recorder.attach_probe r probe
  | None -> ());
  Oracle.attach oracle ~probe ~duplex;
  (match recorder with
  | Some r -> Trace.Recorder.attach_oracle r oracle
  | None -> ());
  let declared = ref false in
  Dlc.Probe.subscribe probe (fun ~now:_ ev ->
      match ev with Dlc.Probe.Failure_declared -> declared := true | _ -> ());
  Dlc.Corrupt.install corrupt engine ~surface ~probe;
  (* open-loop traffic at half the line rate: the HDLC window keeps
     headroom, so the send-side scramble class stays applicable *)
  let line_fps =
    data_rate_bps
    /. float_of_int (8 * (payload_bytes + Frame.Wire.iframe_overhead_bytes))
  in
  let arrivals =
    Workload.Arrivals.deterministic engine ~session ~rate:(0.5 *. line_fps)
      ~count:frames
      ~payload:(Workload.Arrivals.default_payload ~size:payload_bytes)
  in
  let metrics = session.Dlc.Session.metrics in
  let finished () =
    Workload.Arrivals.finished arrivals
    && Dlc.Metrics.unique_delivered metrics >= frames
  in
  let rec watch () =
    if finished () then session.Dlc.Session.stop ()
    else if Sim.Engine.now engine < horizon then
      ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id)
  in
  ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id);
  Sim.Engine.run engine ~until:horizon;
  session.Dlc.Session.stop ();
  Sim.Engine.run engine ~until:(horizon +. 1.);
  Oracle.finalize oracle;
  let conv = Oracle.convergence_times oracle in
  let outcome =
    {
      variant = tag;
      spec = Dlc.Corrupt.describe corrupt;
      injected = Dlc.Corrupt.hits corrupt;
      skipped = Dlc.Corrupt.skipped corrupt;
      converged = List.length conv;
      time_to_convergence = max_or_zero conv;
      tolerated = Oracle.tolerated_count oracle;
      declared_failure = !declared || Oracle.failure_during_window oracle;
      unconverged = Oracle.unconverged oracle;
      completed = Dlc.Metrics.unique_delivered metrics >= frames;
      delivered = Dlc.Metrics.unique_delivered metrics;
      violations = Oracle.violations oracle;
    }
  in
  (match capture with Some c -> Trace.Capture.finish c | None -> ());
  outcome

(* --- corruption across a handover (carryover staleness) ----------------- *)

(* The E21 geometry, reused: three contact windows over a 600 km
   crosslink, one logical transfer of fragmented messages riding a
   Handover.Manager — now with a corruption schedule dispatched into
   whichever session is live, and the cross-handover transfer oracle in
   convergence mode with a casualty ledger for destroyed carryover
   entries. *)
let h_windows =
  [
    { Orbit.Contact.t_start = 0.; t_end = 0.025 };
    { Orbit.Contact.t_start = 0.035; t_end = 0.060 };
    { Orbit.Contact.t_start = 0.070; t_end = 0.095 };
  ]

let h_plan = Handover.Plan.scripted_exn ~retarget_overhead:2e-3 h_windows

let h_params =
  {
    Lams_dlc.Params.default with
    Lams_dlc.Params.w_cp = 1e-3;
    c_depth = 3;
    request_nak_retries = 3;
  }

(* Big enough that the transfer is still in flight at every window
   close: carryover snapshots then hold real unresolved entries for the
   stale-carryover class to destroy, and mid-transfer injections from
   the soak land on live traffic. 10 x 100 kB at 300 Mbit/s is ~27 ms of
   line time against 25 ms contact windows. *)
let h_messages = 10

let h_msg_bytes = 100_000

let h_mtu = 1024

let h_horizon = 0.15

let h_k = 12

type handover_outcome = {
  h_spec : string;
  messages_completed : int;
  h_injected : int;
  h_skipped : int;
  h_converged : int;
  h_time_to_convergence : float;
  h_tolerated : int;
  casualties : int;  (** payloads destroyed by corruption, exempted losses *)
  h_declared : bool;
  h_unconverged : bool;
  sessions : int;
  h_violations : Oracle.violation list;
}

let h_fingerprint ~seed spec =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ "e22-handover"; string_of_int seed; Dlc.Corrupt.describe spec ]))

let run_handover ?recorder ~seed spec =
  let corrupt = Dlc.Corrupt.compile spec in
  let capture =
    match (recorder, Trace.Config.get ()) with
    | Some _, _ | None, None -> None
    | None, Some _ ->
        Trace.Capture.start ~proto:"e22-handover" ~seed
          ~fingerprint:(h_fingerprint ~seed corrupt) ()
  in
  let recorder =
    match capture with
    | Some c -> Some (Trace.Capture.recorder c)
    | None -> recorder
  in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:600_000.
      ~data_rate_bps:300e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:1e-6 ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:1e-7 ())
  in
  let probe = Dlc.Probe.create () in
  (match recorder with
  | Some r -> Trace.Recorder.attach_probe r probe
  | None -> ());
  let transfer = Oracle.Transfer.create ~name:"e22-transfer" in
  Oracle.Transfer.set_convergence transfer ~k:h_k;
  Oracle.Transfer.observe transfer probe;
  let manager =
    Handover.Manager.create ~probe engine ~params:h_params ~duplex ~plan:h_plan
  in
  Handover.Manager.set_on_suspicious_replay manager
    (Oracle.Transfer.mark_suspicious transfer);
  Handover.Manager.set_corruptor
    ~on_casualty:(Oracle.Transfer.declare_casualty transfer)
    manager corrupt;
  let reseq = Netstack.Resequencer.create () in
  let completed_msgs = ref 0 in
  Netstack.Resequencer.set_on_message reseq (fun ~src:_ ~msg_id ~body:_ ->
      incr completed_msgs;
      Oracle.Transfer.on_sink transfer ~now:(Sim.Engine.now engine) msg_id);
  Handover.Manager.set_on_deliver manager (fun ~payload ->
      match Workload.Messages.decode (Frame.Payload.to_string payload) with
      | Ok frag -> Netstack.Resequencer.push reseq frag
      | Error e -> failwith ("e22: undecodable fragment: " ^ e));
  let payloads =
    List.concat_map
      (fun msg_id ->
        let body =
          String.init h_msg_bytes (fun i ->
              Char.chr ((((msg_id * 131) + (i * 7)) land 0x3f) + 48))
        in
        List.map
          (fun f -> Frame.Payload.of_string (Workload.Messages.encode f))
          (Workload.Messages.fragment_message ~msg_id ~src:1 ~dst:2 ~mtu:h_mtu
             body))
      (List.init h_messages (fun i -> i))
  in
  List.iter
    (fun p ->
      if not (Handover.Manager.offer manager p) then
        failwith "e22: manager refused an offer before plan end")
    payloads;
  Sim.Engine.run engine ~until:h_horizon;
  Handover.Manager.stop manager;
  Sim.Engine.run engine ~until:(h_horizon +. 1.);
  let retained = Handover.Manager.retained manager in
  Oracle.Transfer.finalize ~retained transfer;
  let stats = Handover.Manager.stats manager in
  let conv = Oracle.Transfer.convergence_times transfer in
  let outcome =
    {
      h_spec = Dlc.Corrupt.describe corrupt;
      messages_completed = !completed_msgs;
      h_injected = Dlc.Corrupt.hits corrupt;
      h_skipped = Dlc.Corrupt.skipped corrupt;
      h_converged = List.length conv;
      h_time_to_convergence = max_or_zero conv;
      h_tolerated = Oracle.Transfer.tolerated_count transfer;
      casualties = Oracle.Transfer.casualties_lost transfer;
      h_declared = Oracle.Transfer.failure_during_window transfer;
      h_unconverged = Oracle.Transfer.unconverged transfer;
      sessions = stats.Handover.Manager.sessions_created;
      h_violations = Oracle.Transfer.violations transfer;
    }
  in
  (match capture with Some c -> Trace.Capture.finish c | None -> ());
  outcome

let carryover_spec =
  Dlc.Corrupt.Rules
    [
      Dlc.Corrupt.rule ~at:0.
        (Dlc.Corrupt.Carryover_stale { drop = 1; flip = true });
    ]

(* --- matrix points ------------------------------------------------------- *)

let outcome_metrics o =
  let f = float_of_int in
  let b v = if v then 1. else 0. in
  [
    ("injected", f o.injected);
    ("skipped", f o.skipped);
    ("converged_windows", f o.converged);
    ("time_to_convergence", o.time_to_convergence);
    ("tolerated", f o.tolerated);
    ("declared_failure", b o.declared_failure);
    ("unconverged", b o.unconverged);
    ("completed", b o.completed);
    ("delivered", f o.delivered);
    ("oracle_violations", f (List.length o.violations));
  ]

let handover_metrics o =
  let f = float_of_int in
  let b v = if v then 1. else 0. in
  [
    ("injected", f o.h_injected);
    ("skipped", f o.h_skipped);
    ("converged_windows", f o.h_converged);
    ("time_to_convergence", o.h_time_to_convergence);
    ("tolerated", f o.h_tolerated);
    ("declared_failure", b o.h_declared);
    ("unconverged", b o.h_unconverged);
    ("completed", b (o.messages_completed >= h_messages));
    ("delivered", f o.messages_completed);
    ("oracle_violations", f (List.length o.h_violations));
  ]

let handover_point ~label spec =
  {
    Runner.label;
    run = (fun ~seed -> handover_metrics (run_handover ~seed spec));
  }

let points ~quick =
  let vs = if quick then [ Lams ] else variants in
  let cs = if quick then [ List.hd classes ] else classes in
  List.concat_map
    (fun v ->
      List.map
        (fun (cname, klass) ->
          {
            Runner.label = Printf.sprintf "%s/%s" (variant_tag v) cname;
            run =
              (fun ~seed -> outcome_metrics (run_one ~seed v (spec_of klass)));
          })
        cs)
    vs
  @ [ handover_point ~label:"handover/carryover-stale" carryover_spec ]

(* --- mid-handover corruption soak ---------------------------------------- *)

(* Seed-pinned random corruption schedules: the adversary spec itself is
   derived from the task seed, so one schedule index reproduces the same
   injections on any worker of any --jobs run. Injections land inside
   the first two contact windows; the third window provides the clean
   checkpoints that close the last suspect window. *)
let soak_spec ~seed =
  let odd = Sim.Rng.derive_seed ~root:seed [ "e22-soak-carryover" ] land 1 = 1 in
  let classes =
    List.map snd classes
    @ (if odd then [ Dlc.Corrupt.Carryover_stale { drop = 1; flip = false } ]
       else [])
  in
  Dlc.Corrupt.Adversary
    {
      seed = Sim.Rng.derive_seed ~root:seed [ "e22-soak-adversary" ];
      start = 2e-3;
      stop = 0.055;
      mean_gap = 8e-3;
      classes;
    }

let soak_experiment ~schedules =
  {
    Runner.id = "e22-soak";
    name = "mid-handover corruption soak";
    points =
      List.init schedules (fun i ->
          {
            Runner.label = Printf.sprintf "schedule=%03d" i;
            run =
              (fun ~seed ->
                handover_metrics (run_handover ~seed (soak_spec ~seed)));
          });
  }

(* --- report -------------------------------------------------------------- *)

let run ?spec ?(quick = false) ppf =
  Report.section ppf ~id:"E22"
    ~title:"self-stabilisation: convergence after live-state corruption";
  Format.fprintf ppf
    "one injection at t=%.0f ms into a %.0f km / %.0f Mbit/s stream of %d x \
     %d B frames;@ convergence budget k: lams %d, sr-hdlc %d, nbdt %d \
     checkpoint emissions@."
    (inject_at *. 1e3) (distance_m /. 1000.) (data_rate_bps /. 1e6) n_frames
    payload_bytes (convergence_k Lams) (convergence_k Sr_hdlc)
    (convergence_k Nbdt_bulk);
  let table =
    Stats.Table.create
      ~header:
        [
          "variant";
          "class";
          "inj";
          "tolerated";
          "converged";
          "ttc (ms)";
          "declared";
          "oracle";
        ]
  in
  let vs = if quick then [ Lams ] else variants in
  (* a script override replaces the canonical one-shot classes: every
     variant runs the whole script (the carryover row keeps its spec
     unless the script is the override) *)
  let rows =
    match spec with
    | Some s -> [ ("script", `Spec s) ]
    | None ->
        let cs =
          if quick then [ List.hd classes; List.nth classes 3 ] else classes
        in
        List.map (fun (cname, klass) -> (cname, `Spec (spec_of klass))) cs
  in
  List.iter
    (fun v ->
      List.iter
        (fun (cname, `Spec s) ->
          let o = run_one ~seed:11 v s in
          Stats.Table.add_row table
            [
              o.variant;
              cname;
              (if o.injected > 0 then string_of_int o.injected
               else Printf.sprintf "%d skip" o.skipped);
              string_of_int o.tolerated;
              Printf.sprintf "%d/%d" o.converged
                (o.converged + if o.unconverged then 1 else 0);
              Printf.sprintf "%.2f" (o.time_to_convergence *. 1e3);
              (if o.declared_failure then "yes" else "-");
              (if o.violations = [] then "clean"
               else string_of_int (List.length o.violations));
            ])
        rows)
    vs;
  let oh =
    run_handover ~seed:11 (Option.value spec ~default:carryover_spec)
  in
  Stats.Table.add_row table
    [
      "handover";
      "carryover-stale";
      (if oh.h_injected > 0 then string_of_int oh.h_injected
       else Printf.sprintf "%d skip" oh.h_skipped);
      string_of_int oh.h_tolerated;
      Printf.sprintf "%d/%d" oh.h_converged
        (oh.h_converged + if oh.h_unconverged then 1 else 0);
      Printf.sprintf "%.2f" (oh.h_time_to_convergence *. 1e3);
      (if oh.h_declared then "yes" else "-");
      (if oh.h_violations = [] then "clean"
       else string_of_int (List.length oh.h_violations));
    ];
  Report.table ppf table;
  Report.note ppf
    "Expect: every row clean with a finite time-to-convergence, or an\n\
     explicit failure declaration — never a silently wrong steady state.\n\
     Tolerated anomalies are transients inside the suspect window (Dolev\n\
     et al.'s stabilisation period); the handover row additionally counts\n\
     destroyed carryover entries as declared casualties."
