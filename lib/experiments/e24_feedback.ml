let name = "E24 Byzantine feedback: lie classes x variants x guard"

(* E22's short, fast link, noiseless: the quantities under study are
   safety (does a lying reverse channel ever cause a wrongful release?)
   and the degradation envelope (how long until the guard forces the
   sender back onto the truth?), not bandwidth-delay stress. Every fault
   is scripted, so each row is a single deterministic trajectory. *)
let link = { E22_corruption.link with ber = 0.; cframe_ber = 0. }

(* Forward-path losses create the NAK material the lies then tamper
   with: three scripted I-frame drops (a two-frame burst and a single). *)
let forward_drops = [ 20; 21; 60 ]

(* Reverse blackout window: total reverse silence for 10 ms — long
   enough to trip every variant's silence recovery, short enough that
   none exhausts its retry budget. *)
let blackout_from = 5e-3

let blackout_until = 15e-3

type variant = E22_corruption.variant = Lams | Sr_hdlc | Nbdt_bulk

let variant_tag = E22_corruption.variant_tag

let variants = E22_corruption.variants

type lie = No_lie | Forge | Rewrite | Stale | Blackout

let lie_tag = function
  | No_lie -> "none"
  | Forge -> "forge-ack"
  | Rewrite -> "rewrite-cp-seq"
  | Stale -> "inject-stale-cp"
  | Blackout -> "blackout"

let lies = [ No_lie; Forge; Rewrite; Stale; Blackout ]

(* One quarantine is already proof of lying on a noiseless scripted
   channel, so the guard escalates immediately; the paper-default retry
   budget bounds the resync ladder. *)
let guard_config =
  { Dlc.Guard.default_config with Dlc.Guard.distrust_threshold = 1 }

let session ~guard_on variant : Scenario.session =
  let guard = if guard_on then Some guard_config else None in
  match E22_corruption.session variant with
  | `Lams p -> `Lams { p with Lams_dlc.Params.guard }
  | `Hdlc p -> `Hdlc { p with Hdlc.Params.guard }
  | `Nbdt p -> `Nbdt { p with Nbdt.Params.resend_timeout = 5e-3; guard }

let forward_spec =
  Channel.Fault.Rules
    (List.map
       (fun n -> Channel.Fault.rule ~copies:1 (Channel.Fault.I_nth n) Channel.Fault.Drop)
       forward_drops)

(* The reverse-channel lie script for each class. Forge flips the first
   NAK-carrying feedback frame positive; rewrite and stale-replay mangle
   a mid-stream control frame; blackout silences the reverse link for a
   fixed window. *)
let reverse_spec = function
  | No_lie -> None
  | Forge ->
      Some
        (Channel.Fault.Rules
           [ Channel.Fault.rule ~copies:1 Channel.Fault.Cp_nak Channel.Fault.Forge_ack ])
  | Rewrite ->
      Some
        (Channel.Fault.Rules
           [
             Channel.Fault.rule ~copies:1 (Channel.Fault.Control_nth 6)
               (Channel.Fault.Rewrite_cp_seq { delta = -3 });
           ])
  | Stale ->
      Some
        (Channel.Fault.Rules
           [
             Channel.Fault.rule ~copies:1 (Channel.Fault.Control_nth 10)
               (Channel.Fault.Inject_stale_cp { back = 2 });
           ])
  | Blackout ->
      Some
        (Channel.Fault.Rules
           [ Channel.Fault.blackout ~from:blackout_from ~until:blackout_until ])

type outcome = {
  variant : string;
  lie : string;
  guarded : bool;
  faults : int;  (** reverse-channel fault hits *)
  lies_told : int;  (** clean-looking forgeries among them *)
  quarantines : int;
  resyncs : int;
  failure_declared : bool;
  resolved : int;  (** disturbance episodes closed by a recovery *)
  time_to_resync : float;  (** worst resolved episode, seconds *)
  unresolved : bool;  (** an episode was still open at the end *)
  wrongful : int;  (** oracle-detected wrongful releases *)
  violations : int;  (** all base-oracle violations *)
  delivered : int;
  completed : bool;
  goodput_floor : float;
      (** min bucketed delivery rate inside the blackout window (bits/s);
          nan for non-blackout rows *)
}

let max_or_zero = List.fold_left max 0.

let fingerprint ~seed ~variant ~lie ~guarded =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            "e24";
            string_of_int seed;
            variant;
            lie;
            (if guarded then "guard" else "bare");
          ]))

(* Shared core: [forward] / [reverse] are the per-link fault specs,
   [mark_at] opens a disturbance episode at a scripted instant (blackout
   windows produce no per-frame hit until the next frame flies),
   [floor_window] bounds the goodput-floor measurement. *)
let run_core ?recorder ?(frames = link.n_frames) ~guard_on ~seed ~lie_name
    ~forward ~reverse ~mark_at ~floor_window variant =
  let tag = variant_tag variant in
  Trace.Capture.around ?recorder ~proto:("e24-" ^ tag) ~seed
    ~fingerprint:(fun () ->
      fingerprint ~seed ~variant:tag ~lie:lie_name ~guarded:guard_on)
    (fun recorder ->
      let feedback = Oracle.Feedback.create ~bucket:1e-3 () in
      (* the lie script and the ledger attach after the runner's forward
         script: the recorder sees each reverse fault before the ledger *)
      let setup engine duplex probe =
        Option.iter
          (fun spec ->
            let f = Channel.Fault.compile spec in
            Option.iter
              (fun r -> Trace.Recorder.attach_fault r ~link:"reverse" f)
              recorder;
            Channel.Fault.install f duplex.Channel.Duplex.reverse;
            Channel.Fault.set_observer f (fun ~now action _frame ->
                Oracle.Feedback.on_fault feedback ~now
                  ~lie:(Channel.Fault.is_lie action)))
          reverse;
        Oracle.Feedback.observe feedback probe;
        (* a blackout window produces no fault hit until the next frame
           flies, so the episode opens at the scripted instant *)
        Option.iter
          (fun at ->
            ignore
              (Sim.Engine.schedule engine ~delay:at (fun () ->
                   Oracle.Feedback.mark_disturbance feedback
                     ~now:(Sim.Engine.now engine))
                : Sim.Engine.event_id))
          mark_at
      in
      let r, oracle =
        Scenario.run_session ?recorder ~faults:forward ~oracle:true ~setup
          { link with seed; n_frames = frames }
          (session ~guard_on variant)
      in
      let oracle = Option.get oracle in
      let resync_times = Oracle.Feedback.resync_times feedback in
      {
        variant = tag;
        lie = lie_name;
        guarded = guard_on;
        faults = Oracle.Feedback.faults_seen feedback;
        lies_told = Oracle.Feedback.lies_seen feedback;
        quarantines = Oracle.Feedback.quarantines feedback;
        resyncs = Oracle.Feedback.resyncs feedback;
        failure_declared = Oracle.Feedback.failure_declared feedback;
        resolved = List.length resync_times;
        time_to_resync = max_or_zero resync_times;
        unresolved = Oracle.Feedback.unresolved feedback;
        wrongful = Oracle.wrongful_releases oracle;
        violations = Oracle.violation_count oracle;
        delivered = Dlc.Metrics.unique_delivered r.Scenario.metrics;
        completed = r.Scenario.completed;
        goodput_floor =
          (match floor_window with
          | Some (lo, hi) -> Oracle.Feedback.goodput_floor feedback ~lo ~hi
          | None -> nan);
      })

let run_one ?recorder ?frames ~guard_on ~seed variant lie =
  run_core ?recorder ?frames ~guard_on ~seed ~lie_name:(lie_tag lie)
    ~forward:forward_spec ~reverse:(reverse_spec lie)
    ~mark_at:(if lie = Blackout then Some blackout_from else None)
    ~floor_window:
      (if lie = Blackout then Some (blackout_from +. 4e-3, blackout_until)
       else None)
    variant

let run_scripted ?recorder ?frames ~guard_on ~seed variant spec =
  run_core ?recorder ?frames ~guard_on ~seed ~lie_name:"script"
    ~forward:forward_spec ~reverse:(Some spec) ~mark_at:None
    ~floor_window:None variant

(* --- matrix points ------------------------------------------------------- *)

let outcome_metrics o =
  let f = float_of_int in
  let b v = if v then 1. else 0. in
  [
    ("faults", f o.faults);
    ("lies", f o.lies_told);
    ("quarantines", f o.quarantines);
    ("resyncs", f o.resyncs);
    ("resolved_episodes", f o.resolved);
    ("time_to_resync", o.time_to_resync);
    ("failure_declared", b o.failure_declared);
    ("unresolved", b o.unresolved);
    ("wrongful_releases", f o.wrongful);
    ("oracle_violations", f o.violations);
    ("delivered", f o.delivered);
    ("completed", b o.completed);
    ("goodput_floor", (if Float.is_nan o.goodput_floor then 0. else o.goodput_floor));
  ]

(* The rows: variant, lie class and guard setting, with their label. *)
let grid ~quick =
  let vs = if quick then [ Lams ] else variants in
  let ls = if quick then [ No_lie; Forge ] else lies in
  List.concat_map
    (fun v ->
      List.concat_map
        (fun l ->
          List.map
            (fun guard_on ->
              ( Printf.sprintf "%s/%s/%s" (variant_tag v) (lie_tag l)
                  (if guard_on then "guard" else "bare"),
                v,
                l,
                guard_on ))
            [ false; true ])
        ls)
    vs

let points ~quick =
  List.map
    (fun (label, v, l, guard_on) ->
      {
        Runner.label;
        run = (fun ~seed -> outcome_metrics (run_one ~guard_on ~seed v l));
      })
    (grid ~quick)

(* --- lie soak ------------------------------------------------------------ *)

(* Seed-pinned adversarial lying: the reverse channel drops, corrupts
   and forges at random (from a seed-derived schedule), the forward
   channel loses the occasional I-frame to keep NAK traffic flowing, and
   the guard stays on. Safety must hold for every schedule: zero
   wrongful releases, and every disturbance either resolves or ends in a
   declared failure. *)
let soak_reverse_spec ~seed =
  Channel.Fault.adversary
    ~seed:(Sim.Rng.derive_seed ~root:seed [ "e24-soak-reverse" ])
    ~p_control:0.01 ~p_lie:0.05
    ~lies:
      [
        Channel.Fault.Forge_ack;
        Channel.Fault.Rewrite_cp_seq { delta = -1 };
        Channel.Fault.Inject_stale_cp { back = 1 };
      ]
    ()

let soak_forward_spec ~seed =
  Channel.Fault.adversary
    ~seed:(Sim.Rng.derive_seed ~root:seed [ "e24-soak-forward" ])
    ~p_iframe:0.02 ()

let soak_variant i = List.nth variants (i mod List.length variants)

let run_soak ~seed variant =
  outcome_metrics
    (run_core ~guard_on:true ~seed ~lie_name:"soak"
       ~forward:(soak_forward_spec ~seed)
       ~reverse:(Some (soak_reverse_spec ~seed))
       ~mark_at:None ~floor_window:None variant)

let soak_experiment ~schedules =
  {
    Runner.id = "e24-soak";
    name = "lying-feedback soak";
    points =
      List.init schedules (fun i ->
          let variant = soak_variant i in
          {
            Runner.label =
              Printf.sprintf "schedule=%03d/%s" i (variant_tag variant);
            run = (fun ~seed -> run_soak ~seed variant);
          });
  }

(* --- report -------------------------------------------------------------- *)

(* A row's outcome word, from its replicate means: any declared failure,
   then any stall, then any episode left to the variant's own timeouts *)
let outcome_word e label =
  let m = Report.mean e label in
  if m "failure_declared" > 0. then "failure declared"
  else if m "completed" < 1. then
    Printf.sprintf "STALLED (%g lost)" (float_of_int link.n_frames -. m "delivered")
  else if m "unresolved" > 0. then
    (* full delivery with no explicit resync closing the episode: the
       variant's own timeout machinery rode out the disturbance *)
    "converged (implicit)"
  else "converged"

let report ~quick e ppf =
  Report.section ppf ~id:"E24"
    ~title:"Byzantine feedback: lie classes x variants x guard";
  Format.fprintf ppf
    "noiseless %.0f km / %.0f Mbit/s link, %d x %d B frames, scripted \
     forward drops %s;@ reverse-channel lies per row; blackout window \
     [%.0f, %.0f) ms; guard: distrust threshold %d, %d resync retries@."
    (link.distance_m /. 1000.) (link.data_rate_bps /. 1e6) link.n_frames
    link.payload_bytes
    (String.concat "," (List.map string_of_int forward_drops))
    (blackout_from *. 1e3) (blackout_until *. 1e3)
    guard_config.Dlc.Guard.distrust_threshold
    guard_config.Dlc.Guard.resync_retries;
  let table =
    Stats.Table.create
      ~header:
        [
          "variant";
          "lie";
          "guard";
          "lies";
          "quar";
          "resync";
          "ttr s";
          "wrongful";
          "delivered";
          "outcome";
        ]
  in
  List.iter
    (fun (label, v, l, guard_on) ->
      let cell = Report.cell e label in
      Stats.Table.add_row table
        [
          variant_tag v;
          lie_tag l;
          (if guard_on then "on" else "off");
          cell "lies";
          cell "quarantines";
          cell "resyncs";
          cell "time_to_resync";
          (if Report.mean e label "wrongful_releases" = 0. then "0"
           else cell "wrongful_releases" ^ " !!");
          cell "delivered";
          outcome_word e label;
        ])
    (grid ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: with the guard off, forge-ack causes oracle-detected wrongful\n\
     releases (silent data loss) on the checkpointed variants; with the\n\
     guard on, every lie class ends converged — quarantine, forced resync,\n\
     bounded time-to-resync, or implicitly via the variant's own timeout\n\
     machinery — or in an explicit failure declaration, and the wrongful\n\
     column stays 0 everywhere. Lie-free rows must show zero quarantines:\n\
     the guard never penalises honest feedback."
