let name = "E22 self-stabilisation: convergence after live-state corruption"

(* A short, fast link so recovery time scales are milliseconds: the
   quantity under study is the convergence window after an injected
   state corruption, not bandwidth-delay stress. Open-loop traffic at
   half the line rate: the HDLC window keeps headroom, so the send-side
   scramble class stays applicable. *)
let link =
  let cfg =
    {
      Scenario.default with
      Scenario.distance_m = 150_000.;
      data_rate_bps = 100e6;
      payload_bytes = 512;
      ber = 1e-6;
      cframe_ber = 1e-7;
      n_frames = 400;
      horizon = 0.5;
    }
  in
  let line_fps = cfg.data_rate_bps /. float_of_int (Scenario.iframe_bits cfg) in
  { cfg with traffic = `Rate (0.5 *. line_fps) }

let inject_at = 5e-3

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

let session : variant -> Scenario.session = function
  | Lams ->
      `Lams
        { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3; c_depth = 3 }
  | Sr_hdlc ->
      `Hdlc
        { Hdlc.Params.default with Hdlc.Params.t_out = 1.5 *. Scenario.rtt link }
  | Nbdt_bulk ->
      `Nbdt { Nbdt.Params.default with Nbdt.Params.report_interval = 1e-3 }

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
  violations : Oracle.violation list;  (* the first 200 *)
  violation_count : int;
}

let max_or_zero = List.fold_left max 0.

(* The content-addressed capture name's fingerprint. *)
let fingerprint parts () =
  Digest.to_hex (Digest.string (String.concat "|" parts))

let run_one ?recorder ?k ?(frames = link.n_frames) ~seed variant spec =
  let tag = variant_tag variant in
  let corrupt = Dlc.Corrupt.compile spec in
  let k = Option.value k ~default:(convergence_k variant) in
  Trace.Capture.around ?recorder ~proto:("e22-" ^ tag) ~seed
    ~fingerprint:
      (fingerprint [ string_of_int seed; tag; Dlc.Corrupt.describe corrupt ])
    (fun recorder ->
      let r, oracle =
        Scenario.run_session ?recorder ~oracle:true ~corrupt:(corrupt, k)
          { link with seed; n_frames = frames }
          (session variant)
      in
      let oracle = Option.get oracle in
      let conv = Oracle.convergence oracle in
      {
        variant = tag;
        spec = Dlc.Corrupt.describe corrupt;
        injected = Dlc.Corrupt.hits corrupt;
        skipped = Dlc.Corrupt.skipped corrupt;
        converged = List.length conv.times;
        time_to_convergence = max_or_zero conv.times;
        tolerated = conv.tolerated;
        declared_failure =
          r.metrics.Dlc.Metrics.failures_detected > 0 || conv.declared;
        unconverged = conv.unconverged;
        completed = r.completed;
        delivered = Dlc.Metrics.unique_delivered r.metrics;
        violations = Oracle.violations oracle;
        violation_count = Oracle.violation_count oracle;
      })

(* --- corruption across a handover (carryover staleness) ----------------- *)

(* E21's transfer with 100 kB messages, big enough that the transfer is
   still in flight at every window close: carryover snapshots then hold
   real unresolved entries for the stale-carryover class to destroy, and
   mid-transfer injections from the soak land on live traffic. 10 x 100
   kB at 300 Mbit/s is ~27 ms of line time against 25 ms contact
   windows. The corruption schedule is dispatched into whichever session
   is live, and the cross-handover transfer oracle runs in convergence
   mode with a casualty ledger for destroyed carryover entries. *)
let handover_setup = { E21_handover.default_setup with msg_bytes = 100_000 }

let h_k = 12

type handover_outcome = {
  outcome : outcome;
  casualties : int;  (** payloads destroyed by corruption, exempted losses *)
  sessions : int;
}

let run_handover ?recorder ~seed spec =
  let corrupt = Dlc.Corrupt.compile spec in
  Trace.Capture.around ?recorder ~proto:"e22-handover" ~seed
    ~fingerprint:
      (fingerprint
         [ "e22-handover"; string_of_int seed; Dlc.Corrupt.describe corrupt ])
    (fun recorder ->
      let o, transfer =
        E21_handover.transfer ?recorder ~corrupt:(corrupt, h_k) ~seed
          handover_setup
      in
      let conv = Oracle.Transfer.convergence transfer in
      {
        outcome =
          {
            variant = "handover";
            spec = Dlc.Corrupt.describe corrupt;
            injected = Dlc.Corrupt.hits corrupt;
            skipped = Dlc.Corrupt.skipped corrupt;
            converged = List.length conv.times;
            time_to_convergence = max_or_zero conv.times;
            tolerated = conv.tolerated;
            declared_failure = conv.declared;
            unconverged = conv.unconverged;
            completed = o.E21_handover.completed;
            delivered = o.E21_handover.messages_completed;
            violations = o.E21_handover.violations;
            violation_count = o.E21_handover.violation_count;
          };
        casualties = Oracle.Transfer.casualties_lost transfer;
        sessions = o.E21_handover.sessions;
      })

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
    ("oracle_violations", f o.violation_count);
  ]

let handover_metrics o = outcome_metrics o.outcome

let handover_point ~label spec =
  {
    Runner.label;
    run = (fun ~seed -> handover_metrics (run_handover ~seed spec));
  }

(* The single-session rows: variant and corruption class. *)
let grid ~quick =
  let vs = if quick then [ Lams ] else variants in
  let cs = if quick then [ List.hd classes ] else classes in
  List.concat_map (fun v -> List.map (fun (cname, klass) -> (v, cname, klass)) cs) vs

let points ~quick =
  List.map
    (fun (v, cname, klass) ->
      {
        Runner.label = Printf.sprintf "%s/%s" (variant_tag v) cname;
        run = (fun ~seed -> outcome_metrics (run_one ~seed v (spec_of klass)));
      })
    (grid ~quick)
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

let report ~quick e ppf =
  Report.section ppf ~id:"E22"
    ~title:"self-stabilisation: convergence after live-state corruption";
  Format.fprintf ppf
    "one injection at t=%.0f ms into a %.0f km / %.0f Mbit/s stream of %d x \
     %d B frames;@ convergence budget k: lams %d, sr-hdlc %d, nbdt %d \
     checkpoint emissions@."
    (inject_at *. 1e3) (link.distance_m /. 1000.) (link.data_rate_bps /. 1e6)
    link.n_frames link.payload_bytes (convergence_k Lams) (convergence_k Sr_hdlc)
    (convergence_k Nbdt_bulk);
  let table =
    Stats.Table.create
      ~header:
        [
          "variant";
          "class";
          "inj";
          "skip";
          "tolerated";
          "converged";
          "unconverged";
          "ttc s";
          "declared";
          "oracle";
        ]
  in
  List.iter
    (fun (variant, cname) ->
      let label = variant ^ "/" ^ cname in
      let cell = Report.cell e label in
      Stats.Table.add_row table
        [
          variant;
          cname;
          cell "injected";
          cell "skipped";
          cell "tolerated";
          cell "converged_windows";
          cell "unconverged";
          cell "time_to_convergence";
          cell "declared_failure";
          (if Report.mean e label "oracle_violations" = 0. then "clean"
           else cell "oracle_violations");
        ])
    (List.map (fun (v, cname, _) -> (variant_tag v, cname)) (grid ~quick)
    @ [ ("handover", "carryover-stale") ]);
  Report.table ppf table;
  Report.note ppf
    "Expect: every row clean with a finite time-to-convergence, or an\n\
     explicit failure declaration — never a silently wrong steady state.\n\
     Tolerated anomalies are transients inside the suspect window (Dolev\n\
     et al.'s stabilisation period); the handover row additionally counts\n\
     destroyed carryover entries as declared casualties."
