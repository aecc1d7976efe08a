(* Quickstart: send a message across one noisy inter-satellite laser link
   with LAMS-DLC and watch the protocol's accounting.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A simulation engine: all protocol activity is event-driven. *)
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:2024 in

  (* 2. The physical link: 4,000 km laser crosslink at 300 Mbit/s with a
     residual bit error rate of 1e-5 on I-frames; control frames ride a
     stronger FEC (1e-8). *)
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:4_000_000.
      ~data_rate_bps:300e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:1e-5 ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:1e-8 ())
  in

  (* 3. A LAMS-DLC session over that link. *)
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 2e-3 } in
  let session = Lams_dlc.Session.create engine ~params ~duplex in
  let dlc = Lams_dlc.Session.as_dlc session in

  (* 4. Receive side: frames may arrive out of order (that is the point —
     the in-sequence constraint is relaxed; a destination node would
     resequence, see the leo_constellation example). *)
  let received = ref 0 in
  dlc.Dlc.Session.set_on_deliver (fun ~payload ->
      incr received;
      if !received <= 5 || !received mod 500 = 0 then
        Format.printf "  t=%8.4fs  delivered %s... (#%d)@."
          (Sim.Engine.now engine)
          (Frame.Payload.prefix payload 16)
          !received);

  (* 5. Offer 2,000 one-kilobyte frames as fast as the protocol accepts. *)
  let n = 2000 in
  Format.printf "sending %d frames over a 4,000 km / 300 Mbit/s / BER 1e-5 link@." n;
  for i = 0 to n - 1 do
    let payload = Workload.Arrivals.default_payload ~size:1024 i in
    if not (dlc.Dlc.Session.offer payload) then
      Format.printf "  offer %d refused (buffer full)@." i
  done;

  (* 6. Run the simulation to completion. *)
  Sim.Engine.run engine ~until:10.;
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine;

  (* 7. The protocol's own accounting. *)
  let m = dlc.Dlc.Session.metrics in
  Format.printf "@.results:@.  %a@." Dlc.Metrics.pp m;
  Format.printf "@.throughput efficiency: %.2f (1.0 = link never idle)@."
    (Dlc.Metrics.throughput_efficiency m ~iframe_time:(1037. *. 8. /. 300e6));
  assert (Dlc.Metrics.loss m = 0);
  Format.printf "zero frames lost, as the protocol guarantees.@."
