let name = "E16 contact window: lifetime, retargeting, deliverable volume"

(* Two satellites in different planes/altitudes: their geometry produces
   finite visibility windows, unlike intra-plane ring neighbours. *)
let pair () =
  let o1 =
    Orbit.Circular_orbit.create ~altitude_m:1_000_000. ~inclination_rad:0.7
      ~raan_rad:0. ~phase_rad:0. ()
  in
  let o2 =
    Orbit.Circular_orbit.create ~altitude_m:2_000_000. ~inclination_rad:0.7
      ~raan_rad:Float.pi ~phase_rad:1.3 ()
  in
  (o1, o2)

(* The evaluation runs at a scaled-down 3 Mbit/s so that a full
   multi-minute window stays tractable event-wise; the
   overhead-vs-lifetime fractions the experiment is about are
   rate-independent. *)
let data_rate = 3e6

let run_window ~seed ~o1 ~o2 ~window ~protocol =
  let t_start = window.Orbit.Contact.t_start in
  let duration = Orbit.Contact.duration window in
  let distance_m at = Orbit.Geometry.distance_m o1 o2 ~at:(at +. t_start) in
  let session =
    match protocol with
    | `Lams ->
        `Lams
          {
            Lams_dlc.Params.default with
            Lams_dlc.Params.w_cp = 20e-3;
            link_lifetime_end = Some duration;
          }
    | `Hdlc ->
        let rtt = 2. *. distance_m 0. /. Channel.Link.speed_of_light in
        `Hdlc { Hdlc.Params.default with Hdlc.Params.t_out = 1.5 *. rtt }
  in
  (* more traffic than the window can carry: the link, not the source,
     is the bottleneck; the window closes at its end, where the link
     goes down and the session stops *)
  let cfg =
    {
      Scenario.default with
      Scenario.seed;
      data_rate_bps = data_rate;
      n_frames = int_of_float (duration *. data_rate /. 8000.) * 2;
      horizon = duration;
      blackout = Some (duration, 10.);
    }
  in
  let r, _ =
    Scenario.run_session
      ~duplex:(fun engine ->
        Channel.Duplex.create engine ~rng:(Sim.Rng.create ~seed) ~distance_m
          ~data_rate_bps:data_rate
          ~iframe_error:(Channel.Error_model.uniform ~ber:1e-5 ())
          ~cframe_error:(Channel.Error_model.uniform ~ber:1e-8 ()))
      cfg session
  in
  Dlc.Metrics.unique_delivered r.Scenario.metrics

(* The pair's contact windows over four orbits, and the first window of
   at least 120 s truncated to the lifetime slice simulated: 30 s in
   quick mode, else 120 s (the matrix multiplies every point by the
   replicate count). *)
let contact ~quick =
  let o1, o2 = pair () in
  let horizon = 4. *. Orbit.Circular_orbit.period o1 in
  let windows = Orbit.Contact.windows o1 o2 ~from_t:0. ~until_t:horizon in
  let window =
    match
      List.find_opt (fun w -> Orbit.Contact.duration w >= 120.) windows
    with
    | Some w -> w
    | None -> (
        match windows with
        | w :: _ -> w
        | [] -> failwith "no contact window found")
  in
  let lifetime_budget = if quick then 30. else 120. in
  let window =
    {
      window with
      Orbit.Contact.t_end =
        Float.min window.Orbit.Contact.t_end
          (window.Orbit.Contact.t_start +. lifetime_budget);
    }
  in
  (o1, o2, horizon, windows, window)

let t_f = 8296. /. data_rate

let overheads ~quick = if quick then [ 0.; 15. ] else [ 0.; 15.; 30.; 60. ]

let label overhead tag = Printf.sprintf "retarget=%g/%s" overhead tag

let points ~quick =
  let o1, o2, _, _, window = contact ~quick in
  List.concat_map
    (fun overhead ->
      match Orbit.Contact.usable window ~retarget_overhead:overhead with
      | None -> []
      | Some usable ->
          let usable_s = Orbit.Contact.duration usable in
          List.map
            (fun (tag, protocol) ->
              {
                Runner.label = label overhead tag;
                run =
                  (fun ~seed ->
                    let delivered =
                      run_window ~seed ~o1 ~o2 ~window:usable ~protocol
                    in
                    [
                      ("delivered", float_of_int delivered);
                      ("usable_s", usable_s);
                      ("efficiency", float_of_int delivered *. t_f /. usable_s);
                    ]);
              })
            [ ("lams", `Lams); ("hdlc", `Hdlc) ])
    (overheads ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E16"
    ~title:"contact window: lifetime, retargeting overhead, volume";
  let o1, o2, horizon, windows, window = contact ~quick in
  Format.fprintf ppf
    "pair: 1,000 km vs 2,000 km counter-plane orbits; first long \
     window truncated to a %.0f s lifetime slice (of %d windows in %.0f s);@ \
     mean range %.0f km; link rate %.0f Mbit/s (scaled; overhead fractions \
     are rate-independent)@."
    (Orbit.Contact.duration window)
    (List.length windows) horizon
    (Orbit.Contact.mean_distance o1 o2 window ~samples:50 /. 1000.)
    (data_rate /. 1e6);
  let table =
    Stats.Table.create
      ~header:
        [
          "retarget overhead s";
          "usable s";
          "lams delivered";
          "lams MB";
          "lams eff";
          "hdlc delivered";
          "hdlc eff";
        ]
  in
  List.iter
    (fun overhead ->
      match Orbit.Contact.usable window ~retarget_overhead:overhead with
      | None ->
          Stats.Table.add_row table
            [ Printf.sprintf "%g" overhead; "0"; "-"; "-"; "-"; "-"; "-" ]
      | Some usable ->
          let lams = Report.cell e (label overhead "lams") in
          let hdlc = Report.cell e (label overhead "hdlc") in
          Stats.Table.add_row table
            [
              Printf.sprintf "%g" overhead;
              Printf.sprintf "%.0f" (Orbit.Contact.duration usable);
              lams "delivered";
              Printf.sprintf "%.1f"
                (Report.mean e (label overhead "lams") "delivered" /. 1024.);
              lams "efficiency";
              hdlc "delivered";
              hdlc "efficiency";
            ])
    (overheads ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: deliverable volume shrinks linearly with retargeting overhead\n\
     — the paper's short-lifetime motivation for minimising idle time.\n\
     Note the instructive side effect of the scaled-down rate: at 3 Mbit/s\n\
     the bandwidth-delay product (~20 frames) fits inside HDLC's window, so\n\
     both protocols run near line rate — confirming that LAMS-DLC's\n\
     advantage (E5: 17x at 300 Mbit/s) is specifically the high\n\
     rate-distance regime the paper targets, not ARQ mechanics in general."
