(* The single-session runs that no golden trace pins byte for byte: E22
   on SR-HDLC and NBDT, E24 on SR-HDLC and NBDT (forged ACK, guard on and
   off) and on LAMS under the reverse blackout (the disturbance mark and
   the goodput floor), E17's two NBDT rows and every point of E8, E9, E16
   and E19 at the quick config. Each outcome metric vector is pinned by
   the MD5 of its floats in exact hex form, so a rewiring of the session
   assembly cannot move them unseen. *)

module E8 = Experiments.E8_burst_errors
module E9 = Experiments.E9_link_failure
module E16 = Experiments.E16_contact_window
module E17 = Experiments.E17_nbdt
module E19 = Experiments.E19_delay_distribution
module E22 = Experiments.E22_corruption
module E24 = Experiments.E24_feedback

let digest metrics =
  metrics
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let e22 variant cname =
  ( Printf.sprintf "e22 %s/%s" (E22.variant_tag variant) cname,
    fun () ->
      (E22.run_one ~seed:11 variant (E22.spec_of (List.assoc cname E22.classes)))
        .metrics )

let e24 variant lie guard_on =
  ( Printf.sprintf "e24 %s/%s/%s" (E22.variant_tag variant) (E24.lie_tag lie)
      (if guard_on then "guard" else "bare"),
    fun () -> (E24.run_one ~guard_on ~seed:11 variant lie).metrics )

let quick_point name points label =
  ( Printf.sprintf "%s %s" name label,
    fun () ->
      match
        List.find_opt
          (fun (p : Runner.point) -> p.Runner.label = label)
          (points ~quick:true)
      with
      | Some p -> p.Runner.run ~seed:11
      | None -> Alcotest.failf "no %s point %S" name label )

let e8 = quick_point "e8" E8.points
let e9 = quick_point "e9" E9.points
let e16 = quick_point "e16" E16.points
let e17 = quick_point "e17" E17.points
let e19 = quick_point "e19" E19.points

(* At the quick config's 500 frames, one 512-frame batch, multiphase
   NBDT never alternates and matches continuous NBDT bit for bit. *)
let test_single_sessions_pinned () =
  let runs, expected =
    List.split
      [
        (e22 E22.Sr_hdlc "seq-scramble-send", "b1451b9fb5df91df17eb860cb9edecc0");
        (e22 E22.Nbdt_bulk "nak-poison", "5ba8952b50869f7b208e773715565395");
        (e24 E24.Sr_hdlc E24.Forge false, "a068866567bb04742d413aa1593492b1");
        (e24 E24.Sr_hdlc E24.Forge true, "a068866567bb04742d413aa1593492b1");
        (e24 E24.Nbdt_bulk E24.Forge false, "6ec48bdbbe8e638b096069ab4d3b982d");
        (e24 E24.Nbdt_bulk E24.Forge true, "ec82975c4a640825280936159283527f");
        (e24 E24.Lams E24.Blackout false, "f9c6ff7cabad285012e694bf9d25a58a");
        (e24 E24.Lams E24.Blackout true, "964d9b1cb031d88efc88f3a8fee9b2b1");
        (e17 "ber=1e-05/nbdt-multiphase", "817b93a58d4f530ee693e7269e7c115a");
        (e17 "ber=1e-05/nbdt-continuous", "817b93a58d4f530ee693e7269e7c115a");
        (e8 "burst=4/lams", "4d2161019d77cd5846aaf50e2bf3da36");
        (e8 "burst=4/hdlc", "e84294bff203ce2aac483201648458c1");
        (e8 "burst=64/lams", "8d2dab6f94f0f3a71855e1e147489900");
        (e8 "burst=64/hdlc", "1f46114cb5d3210607b6f9e477973de4");
        (e9 "blackout=0.02/lams", "884057b984165da64511bf2264b7e544");
        (e9 "blackout=0.02/hdlc", "59af71bfbcb5e1a7a29791a0b873598e");
        (e9 "blackout=1/lams", "ae9ea2289065971129babf5bb693a4dd");
        (e9 "blackout=1/hdlc", "b104a0b2abaa1650daffd3c25c4ef61d");
        (e16 "retarget=0/lams", "9e9b677a84b8dfac3fa44a03d7fad63b");
        (e16 "retarget=0/hdlc", "9ce23a4c66f2d7195ba18acb59975f1b");
        (e16 "retarget=15/lams", "261a8136541b2b4e9db6912381ca9821");
        (e16 "retarget=15/hdlc", "de30d1519203838e645db59a6c8426e5");
        (e19 "load=4%/lams", "f61f45e8b4881d7e8800c9884879114f");
        (e19 "load=4%/hdlc", "81b97ea10b0eb84158a567bf27661715");
        (e19 "load=50%/lams", "38f8f2dcd3b1618998ad92222df2a010");
        (e19 "load=50%/hdlc", "835bfd6bcdd475b45df00d2291a5119b");
      ]
  in
  Alcotest.(check (list (pair string string)))
    "metric digests"
    (List.map2 (fun (label, _) d -> (label, d)) runs expected)
    (List.map (fun (label, run) -> (label, digest (run ()))) runs)

(* The runner replays [channel_trace] for NBDT as for LAMS-DLC and HDLC:
   on an otherwise noiseless link, the storm trace's damaged frames are
   the only ones, so a traced run retransmits and an untraced one does
   not. *)
let test_nbdt_replays_channel_trace () =
  let _, storm =
    Channel.Trace_model.generate `Storm ~frames:2_000 ~seed:3 ~payload_bytes:1024
  in
  let cfg =
    {
      Experiments.Scenario.default with
      Experiments.Scenario.ber = 0.;
      n_frames = 300;
    }
  in
  let run channel_trace =
    fst
      (Experiments.Scenario.run_session
         { cfg with Experiments.Scenario.channel_trace }
         (`Nbdt Nbdt.Params.default))
  in
  let plain = run None and traced = run (Some storm) in
  let retx (r : Experiments.Scenario.result) =
    r.Experiments.Scenario.metrics.Dlc.Metrics.retransmissions
  in
  Alcotest.(check bool) "both complete" true
    (plain.Experiments.Scenario.completed
    && traced.Experiments.Scenario.completed);
  Alcotest.(check int) "no retransmission without the trace" 0 (retx plain);
  Alcotest.(check bool) "the trace's damaged frames are retransmitted" true
    (retx traced > 0)

(* E17's NBDT rows replay the process-wide channel trace
   ([--channel-trace]) as its LAMS row does: with the golden trace set,
   the quick row moves. *)
let test_e17_nbdt_replays_default_trace () =
  let _, row = e17 "ber=1e-05/nbdt-continuous" in
  let plain = row () in
  let trace =
    Channel.Trace_model.load
      (Filename.concat Test_golden.data_dir "channel-trace-golden.trace")
  in
  let traced =
    Fun.protect
      ~finally:(fun () -> Experiments.Scenario.set_default_channel_trace None)
      (fun () ->
        Experiments.Scenario.set_default_channel_trace (Some trace);
        row ())
  in
  Alcotest.(check bool) "the trace moves the row" true (plain <> traced);
  Alcotest.(check (list (pair string (float 0.)))) "and only while set" plain
    (row ())

(* [?duplex] replaces the channel the config describes, and a probe
   listener added by [?setup] sees the whole run: at [ber = 1e-3] nearly
   every 1 kB frame would be damaged, yet a perfect duplex retransmits
   nothing, and the listener counts every offer and every delivery. *)
let test_duplex_and_setup_hooks () =
  let module S = Experiments.Scenario in
  let n = 300 in
  let cfg = { S.default with S.ber = 1e-3; n_frames = n } in
  let perfect engine =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed:cfg.S.seed)
      ~distance_m:cfg.S.distance_m ~data_rate_bps:cfg.S.data_rate_bps
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let offered = ref 0 and delivered = Hashtbl.create n in
  let setup _engine _duplex probe =
    Dlc.Probe.listen probe
      {
        Dlc.Probe.no_handlers with
        offered = (fun _ -> incr offered);
        delivered =
          (fun ~seq:_ ~payload ->
            Hashtbl.replace delivered (Frame.Payload.to_string payload) ());
      }
  in
  let r, _ =
    S.run_session ~duplex:perfect ~setup cfg (`Lams (S.default_lams_params cfg))
  in
  Alcotest.(check bool) "completed" true r.S.completed;
  Alcotest.(check int) "no retransmission" 0
    r.S.metrics.Dlc.Metrics.retransmissions;
  Alcotest.(check int) "every offer seen" n !offered;
  Alcotest.(check int) "every unique delivery seen" n (Hashtbl.length delivered)

let suite =
  [
    Alcotest.test_case "single-session outcome vectors pinned at seed 11"
      `Quick test_single_sessions_pinned;
    Alcotest.test_case "NBDT replays the channel trace" `Quick
      test_nbdt_replays_channel_trace;
    Alcotest.test_case "E17's NBDT rows replay the default trace" `Quick
      test_e17_nbdt_replays_default_trace;
    Alcotest.test_case "run_session's duplex and setup hooks" `Quick
      test_duplex_and_setup_hooks;
  ]
