(* The single-session runs that no golden trace pins byte for byte: E22
   on SR-HDLC and NBDT, E24 on SR-HDLC and NBDT (forged ACK, guard on and
   off) and on LAMS under the reverse blackout (the disturbance mark and
   the goodput floor), and E17's two NBDT rows at the quick config. Each
   outcome metric vector is pinned by the MD5 of its floats in exact hex
   form, so a rewiring of the session assembly cannot move them unseen. *)

module E17 = Experiments.E17_nbdt
module E22 = Experiments.E22_corruption
module E24 = Experiments.E24_feedback

let digest metrics =
  metrics
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let e22 variant cname =
  ( Printf.sprintf "e22 %s/%s" (E22.variant_tag variant) cname,
    fun () ->
      E22.outcome_metrics
        (E22.run_one ~seed:11 variant (E22.spec_of (List.assoc cname E22.classes)))
  )

let e24 variant lie guard_on =
  ( Printf.sprintf "e24 %s/%s/%s" (E22.variant_tag variant) (E24.lie_tag lie)
      (if guard_on then "guard" else "bare"),
    fun () -> E24.outcome_metrics (E24.run_one ~guard_on ~seed:11 variant lie) )

let e17 label =
  ( "e17 " ^ label,
    fun () ->
      match
        List.find_opt
          (fun (p : Runner.point) -> p.Runner.label = label)
          (E17.points ~quick:true)
      with
      | Some p -> p.Runner.run ~seed:11
      | None -> Alcotest.failf "no E17 point %S" label )

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
  let trace = Channel.Trace_model.load "data/channel-trace-golden.trace" in
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

let suite =
  [
    Alcotest.test_case "single-session outcome vectors pinned at seed 11"
      `Quick test_single_sessions_pinned;
    Alcotest.test_case "NBDT replays the channel trace" `Quick
      test_nbdt_replays_channel_trace;
    Alcotest.test_case "E17's NBDT rows replay the default trace" `Quick
      test_e17_nbdt_replays_default_trace;
  ]
