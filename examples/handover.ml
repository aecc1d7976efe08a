(* Link handover: carrying traffic across the end of a contact window.

   A LAMS network link lives only minutes; when it dies, the network
   layer must re-route whatever the DLC still holds. This example runs a
   transfer over link A until A blacks out permanently, lets the sender
   declare failure, drains the sending buffer with the §3.3 handoff
   classification (Not_delivered vs Suspicious), and replays the drained
   payloads over a fresh link B. The destination-style dedup check at the
   end shows the cost of re-routing: zero loss, and only the Suspicious
   frames can duplicate.

   Run with:  dune exec examples/handover.exe *)

let transfer_over engine duplex ~params ~payloads ~delivered =
  let session = Lams_dlc.Session.create engine ~params ~duplex in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload ->
      Frame.Payload.Tbl.replace delivered payload
        (1
        + Option.value ~default:0 (Frame.Payload.Tbl.find_opt delivered payload)));
  List.iter
    (fun p ->
      if not (dlc.Dlc.Session.offer p) then
        failwith "offer refused (buffer too small for the demo)")
    payloads;
  (session, dlc)

let () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:77 in
  let mk_duplex () =
    Channel.Duplex.create_static engine ~rng ~distance_m:2_000_000.
      ~data_rate_bps:300e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:1e-5 ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:1e-8 ())
  in
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3 } in
  let n = 3000 in
  let payloads = List.init n (Workload.Arrivals.default_payload ~size:1024) in
  let delivered = Frame.Payload.Tbl.create 64 in

  (* link A dies for good 30 ms in *)
  let link_a = mk_duplex () in
  let session_a, dlc_a =
    transfer_over engine link_a ~params ~payloads ~delivered
  in
  ignore
    (Sim.Engine.schedule engine ~delay:0.03 (fun () ->
         Format.printf "  t=%8.4fs  link A lost (window closed)@."
           (Sim.Engine.now engine);
         Channel.Duplex.set_down link_a)
      : Sim.Engine.event_id);
  Sim.Engine.run engine ~until:0.5;
  dlc_a.Dlc.Session.stop ();
  Sim.Engine.run engine;
  let sender_a = Lams_dlc.Session.sender session_a in
  assert (Lams_dlc.Sender.failed sender_a);
  Format.printf "  link A declared failed; delivered so far: %d/%d@."
    (Frame.Payload.Tbl.length delivered) n;

  (* §3.3 handoff: classify what link A still held *)
  let drained = Lams_dlc.Sender.drain_unresolved sender_a in
  let not_delivered, suspicious =
    List.partition (fun u -> u.Lams_dlc.Sender.verdict = `Not_delivered) drained
  in
  Format.printf
    "  handoff: %d frames certainly undelivered, %d suspicious (may duplicate)@."
    (List.length not_delivered)
    (List.length suspicious);

  (* replay everything drained over fresh link B *)
  let link_b = mk_duplex () in
  let replay = List.map (fun u -> u.Lams_dlc.Sender.payload) drained in
  let _session_b, dlc_b =
    transfer_over engine link_b ~params ~payloads:replay ~delivered
  in
  Sim.Engine.run engine ~until:2.;
  dlc_b.Dlc.Session.stop ();
  Sim.Engine.run engine;

  (* the destination's view *)
  let missing = ref 0 and dups = ref 0 in
  List.iter
    (fun p ->
      match Frame.Payload.Tbl.find_opt delivered p with
      | None -> incr missing
      | Some 1 -> ()
      | Some _ -> incr dups)
    payloads;
  Format.printf
    "@.after handover: %d/%d delivered, %d missing, %d duplicated@."
    (n - !missing) n !missing !dups;
  Format.printf
    "zero loss across the handover; duplicates (deduplicated by the\n\
     destination resequencer in a real network) are bounded by the\n\
     suspicious set: %d <= %d@."
    !dups
    (List.length suspicious);
  assert (!missing = 0);
  assert (!dups <= List.length suspicious)
