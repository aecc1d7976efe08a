let name = "E21 multi-contact transfer: session handover across link lifetimes"

(* A short-range crosslink at full rate: the point here is window
   churn, not bandwidth-delay stress, so the geometry stays small and
   the windows short enough that a full multi-window journey is a
   few hundred thousand events. *)
type setup = {
  plan : Handover.Plan.t;
  params : Lams_dlc.Params.t;
  n_messages : int;
  msg_bytes : int;
  mtu : int;
  distance_m : float;
  data_rate_bps : float;
  ber : float;
  cframe_ber : float;
  blackouts : (float * float) list;  (* unscheduled outages: start, length *)
  cut : [ `None | `First_tx | `First_nak | `Recovery ];
  cut_outage : float;
  drop_nth_iframe : int option;  (* deterministic seed for a NAK *)
  horizon : float;
}

let base_windows =
  [
    { Orbit.Contact.t_start = 0.; t_end = 0.025 };
    { Orbit.Contact.t_start = 0.035; t_end = 0.060 };
    { Orbit.Contact.t_start = 0.070; t_end = 0.095 };
  ]

let base_plan = Handover.Plan.scripted_exn ~retarget_overhead:2e-3 base_windows

let default_setup =
  {
    plan = base_plan;
    params =
      {
        Lams_dlc.Params.default with
        Lams_dlc.Params.w_cp = 1e-3;
        c_depth = 3;
        request_nak_retries = 3;
      };
    n_messages = 10;
    msg_bytes = 3000;
    mtu = 1024;
    distance_m = 600_000.;
    data_rate_bps = 300e6;
    ber = 1e-6;
    cframe_ber = 1e-7;
    blackouts = [];
    cut = `None;
    cut_outage = 4e-3;
    drop_nth_iframe = None;
    horizon = 0.15;
  }

type outcome = {
  messages_completed : int;
  payload_count : int;
  duplicates_dropped : int;
  windows_opened : int;
  sessions : int;
  mid_window_failures : int;
  carried_over : int;
  suspicious_carried : int;
  retained : int;
  link_transitions : int;
  completed : bool;
  violations : Oracle.violation list;  (* the first 200 *)
  violation_count : int;
}

(* One set_down/set_up pulse triggered by a protocol phase, so the cut
   lands at an adversarial instant rather than a wall-clock one:
   - [`First_tx]: inside the probe's Tx emission, i.e. after the sender
     committed the frame but before it starts serialising — the frame is
     swallowed by the outage;
   - [`First_nak]: on the first checkpoint that advertises a NAK, before
     it enters the reverse link — the cut lands between the receiver's
     checkpoint decision and the sender learning of the NAK;
   - [`Recovery]: on [Recovery_started], before the Request-NAK is sent
     — enforced recovery itself runs into the outage. *)
let install_phase_cut engine ~probe ~duplex ~cut ~outage =
  let armed = ref true in
  let fire () =
    if !armed then begin
      armed := false;
      Channel.Duplex.set_down duplex;
      ignore
        (Sim.Engine.schedule engine ~delay:outage (fun () ->
             Channel.Duplex.set_up duplex)
          : Sim.Engine.event_id)
    end
  in
  match cut with
  | `None -> ()
  | `First_tx ->
      Dlc.Probe.listen probe
        {
          Dlc.Probe.no_handlers with
          tx = (fun ~seq:_ ~payload:_ ~retx:_ -> fire ());
        }
  | `First_nak ->
      Dlc.Probe.listen probe
        {
          Dlc.Probe.no_handlers with
          cp_emitted =
            (fun ~cp_seq:_ ~next_expected:_ ~enforced:_ ~stop_go:_ ~naks ->
              match naks with _ :: _ -> fire () | [] -> ());
        }
  | `Recovery ->
      Dlc.Probe.listen probe
        {
          Dlc.Probe.no_handlers with
          other =
            (fun ~now:_ -> function
              | Dlc.Probe.Recovery_started -> fire () | _ -> ());
        }

(* Plan.t and setup are pure data, so the task's whole configuration can
   be content-addressed in one Marshal digest — the capture filename
   depends only on (seed, setup), never on worker or completion order. *)
let fingerprint ~seed setup =
  Digest.to_hex (Digest.string (Marshal.to_string (seed, setup) []))

let transfer ?recorder ?corrupt ~seed setup =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:setup.distance_m
      ~data_rate_bps:setup.data_rate_bps
      ~iframe_error:(Channel.Error_model.uniform ~ber:setup.ber ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:setup.cframe_ber ())
  in
  (match setup.drop_nth_iframe with
  | Some n ->
      Channel.Fault.install
        (Channel.Fault.of_rules
           [ Channel.Fault.rule (Channel.Fault.I_nth n) Channel.Fault.Drop ])
        duplex.Channel.Duplex.forward
  | None -> ());
  let probe = Dlc.Probe.create () in
  (match recorder with
  | Some r -> Trace.Recorder.attach_probe r probe
  | None -> ());
  let transfer = Oracle.Transfer.create () in
  (match corrupt with
  | Some (_, k) -> Oracle.Transfer.set_convergence transfer ~k
  | None -> ());
  Oracle.Transfer.observe transfer probe;
  let manager =
    Handover.Manager.create ~probe engine ~params:setup.params ~duplex
      ~plan:setup.plan
  in
  Handover.Manager.set_on_suspicious_replay manager
    (Oracle.Transfer.mark_suspicious transfer);
  (match corrupt with
  | Some (schedule, _) ->
      Handover.Manager.set_corruptor
        ~on_casualty:(Oracle.Transfer.declare_casualty transfer)
        manager schedule
  | None -> ());
  install_phase_cut engine ~probe ~duplex ~cut:setup.cut
    ~outage:setup.cut_outage;
  List.iter
    (fun (start, len) ->
      ignore
        (Sim.Engine.schedule engine ~delay:start (fun () ->
             Channel.Duplex.set_down duplex)
          : Sim.Engine.event_id);
      ignore
        (Sim.Engine.schedule engine ~delay:(start +. len) (fun () ->
             Channel.Duplex.set_up duplex)
          : Sim.Engine.event_id))
    setup.blackouts;
  let reseq = Netstack.Resequencer.create () in
  let completed_msgs = ref 0 in
  (* the sink invariant is uniqueness, not id order: a retransmitted
     fragment of message k can arrive after message k+1 completed, so
     completion order is legitimately loose — strictly increasing ids
     hold only when messages finish transit one at a time (see
     test_netstack's property) *)
  Netstack.Resequencer.set_on_message reseq (fun ~src:_ ~msg_id ~body:_ ->
      incr completed_msgs;
      Oracle.Transfer.on_sink transfer ~now:(Sim.Engine.now engine) msg_id);
  Handover.Manager.set_on_deliver manager (fun ~payload ->
      match Workload.Messages.decode (Frame.Payload.to_string payload) with
      | Ok frag -> Netstack.Resequencer.push reseq frag
      | Error e -> failwith ("e21: undecodable fragment: " ^ e));
  let payloads =
    List.concat_map
      (fun msg_id ->
        let body =
          String.init setup.msg_bytes (fun i ->
              Char.chr ((((msg_id * 131) + (i * 7)) land 0x3f) + 48))
        in
        List.map
          (fun f -> Frame.Payload.of_string (Workload.Messages.encode f))
          (Workload.Messages.fragment_message ~msg_id ~src:1 ~dst:2
             ~mtu:setup.mtu body))
      (List.init setup.n_messages (fun i -> i))
  in
  List.iter
    (fun p ->
      if not (Handover.Manager.offer manager p) then
        failwith "e21: manager refused an offer before plan end")
    payloads;
  Sim.Engine.run engine ~until:setup.horizon;
  Handover.Manager.stop manager;
  (* a corruption schedule stops with its transfer, before the drain *)
  (match corrupt with
  | Some (schedule, _) -> Dlc.Corrupt.stop schedule
  | None -> ());
  Sim.Engine.run engine ~until:(setup.horizon +. 1.);
  let retained = Handover.Manager.retained manager in
  Oracle.Transfer.finalize ~retained transfer;
  let stats = Handover.Manager.stats manager in
  let outcome =
    {
      messages_completed = !completed_msgs;
      payload_count = List.length payloads;
      duplicates_dropped = Netstack.Resequencer.duplicates_dropped reseq;
      windows_opened = stats.Handover.Manager.windows_opened;
      sessions = stats.Handover.Manager.sessions_created;
      mid_window_failures = stats.Handover.Manager.mid_window_failures;
      carried_over = stats.Handover.Manager.carried_over;
      suspicious_carried = stats.Handover.Manager.suspicious_carried;
      retained = List.length retained;
      link_transitions = Handover.Lifecycle.transitions
          (Handover.Manager.lifecycle manager);
      completed = !completed_msgs >= setup.n_messages;
      violations = Oracle.Transfer.violations transfer;
      violation_count = Oracle.Transfer.violation_count transfer;
    }
  in
  (outcome, transfer)

let run_transfer ~seed setup =
  Trace.Capture.around ~proto:"handover" ~seed
    ~fingerprint:(fun () -> fingerprint ~seed setup)
    (fun recorder -> fst (transfer ?recorder ~seed setup))

(* --- matrix points ------------------------------------------------------- *)

let outcome_metrics o =
  let f = float_of_int in
  [
    ("messages_completed", f o.messages_completed);
    ("payloads", f o.payload_count);
    ("dup_dropped", f o.duplicates_dropped);
    ("windows_opened", f o.windows_opened);
    ("sessions", f o.sessions);
    ("mid_window_failures", f o.mid_window_failures);
    ("carried_over", f o.carried_over);
    ("suspicious_carried", f o.suspicious_carried);
    ("retained", f o.retained);
    ("link_transitions", f o.link_transitions);
    ("completed", if o.completed then 1. else 0.);
    ("oracle_violations", f o.violation_count);
  ]

let scenarios ~quick =
  let cut c = { default_setup with cut = c; drop_nth_iframe = Some 3 } in
  let base = [ ("3-windows", default_setup) ] in
  let stress =
    [
      ( "blackouts",
        { default_setup with blackouts = [ (0.004, 0.006); (0.046, 0.008) ] } );
      ("cut=first-tx", cut `First_tx);
      ("cut=first-nak", cut `First_nak);
      ("cut=recovery", cut `Recovery);
    ]
  in
  if quick then base @ [ List.nth stress 0 ] else base @ stress

let points ~quick =
  List.map
    (fun (label, setup) ->
      { Runner.label; run = (fun ~seed -> outcome_metrics (run_transfer ~seed setup)) })
    (scenarios ~quick)

(* --- chaos soak ---------------------------------------------------------- *)

(* Seed-pinned random blackout schedules over the base plan: every draw
   comes from the task seed, so one schedule index always reproduces the
   same disasters, on any worker of any --jobs run. *)
let soak_setup ~seed =
  let rng = Sim.Rng.create ~seed:(Sim.Rng.derive_seed ~root:seed [ "e21-soak" ]) in
  let plan_end =
    match Handover.Plan.end_time base_plan with Some e -> e | None -> 0.
  in
  let n = 1 + Sim.Rng.int rng 3 in
  let blackouts =
    List.init n (fun _ ->
        let start = Sim.Rng.float rng plan_end in
        let len = 0.5e-3 +. Sim.Rng.float rng 7.5e-3 in
        (start, len))
  in
  { default_setup with blackouts }

let soak_experiment ~schedules =
  {
    Runner.id = "e21-soak";
    name = "handover chaos soak";
    points =
      List.init schedules (fun i ->
          {
            Runner.label = Printf.sprintf "schedule=%03d" i;
            run =
              (fun ~seed -> outcome_metrics (run_transfer ~seed (soak_setup ~seed)));
          });
  }

(* --- report -------------------------------------------------------------- *)

let report ~quick e ppf =
  Report.section ppf ~id:"E21"
    ~title:"multi-contact transfer: session handover across link lifetimes";
  Format.fprintf ppf
    "contact plan: %a;@ %d messages x %d B (mtu %d) over a %.0f km link at \
     %.0f Mbit/s@."
    Handover.Plan.pp default_setup.plan default_setup.n_messages
    default_setup.msg_bytes default_setup.mtu
    (default_setup.distance_m /. 1000.)
    (default_setup.data_rate_bps /. 1e6);
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario";
          "msgs";
          "sessions";
          "mid-fail";
          "carryover";
          "susp";
          "dup-drop";
          "retained";
          "oracle";
        ]
  in
  List.iter
    (fun (label, _) ->
      let cell = Report.cell e label in
      Stats.Table.add_row table
        [
          label;
          cell "messages_completed";
          cell "sessions";
          cell "mid_window_failures";
          cell "carried_over";
          cell "suspicious_carried";
          cell "dup_dropped";
          cell "retained";
          (if Report.mean e label "oracle_violations" = 0. then "clean"
           else cell "oracle_violations");
        ])
    (scenarios ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: every scenario clean — each offered payload is delivered or\n\
     retained, duplicates stay within the Suspicious carryover budget and\n\
     are absorbed by the destination resequencer (the continuity witness),\n\
     and the transfer survives >= 3 consecutive contact windows including\n\
     adversarial-phase link cuts."
