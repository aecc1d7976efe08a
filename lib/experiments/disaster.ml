type outcome = {
  recorder : Trace.Recorder.t;
  violations : Oracle.violation list;
}

let payload ~size i =
  Workload.Arrivals.default_payload ~size i

(* The payload whose first copy the fault script drops. *)
let dropped = 5

let run ?(seed = 7) ?(frames = 20) ?recorder () =
  let recorder =
    match recorder with Some r -> r | None -> Trace.Recorder.create ()
  in
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed)
      ~distance_m:1_000_000. ~data_rate_bps:100e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:0. ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:0. ())
  in
  let probe = Dlc.Probe.create () in
  let metrics = Dlc.Metrics.create () in
  let sender =
    Lams_dlc.Sender.create engine ~params:Lams_dlc.Params.default
      ~forward:duplex.Channel.Duplex.forward ~metrics ~probe
  in
  (* the deliberately broken half: an empty cumulation window means the
     dropped frame is never NAKed, so the sender's implicit ACK releases
     it undelivered *)
  let broken = { Lams_dlc.Params.default with Lams_dlc.Params.c_depth = 0 } in
  let receiver =
    Lams_dlc.Receiver.create engine ~params:broken
      ~reverse:duplex.Channel.Duplex.reverse ~metrics ~probe
  in
  Channel.Link.set_receiver duplex.Channel.Duplex.forward (fun rx ->
      Lams_dlc.Receiver.on_rx receiver rx);
  Channel.Link.set_receiver duplex.Channel.Duplex.reverse (fun rx ->
      Lams_dlc.Sender.on_rx sender rx);
  Trace.Recorder.attach_probe recorder probe;
  let fault =
    Channel.Fault.(
      of_rules [ rule ~copies:1 (I_payload (payload ~size:256 dropped)) Drop ])
  in
  Trace.Recorder.attach_fault recorder ~link:"forward" fault;
  Channel.Fault.install fault duplex.Channel.Duplex.forward;
  let oracle =
    Oracle.create (Oracle.Lams { c_depth = 0; holding_bound = 1.0 })
  in
  Oracle.attach oracle ~probe ~duplex;
  Trace.Recorder.attach_oracle recorder oracle;
  for i = 0 to frames - 1 do
    ignore (Lams_dlc.Sender.offer sender (payload ~size:256 i) : bool)
  done;
  Sim.Engine.run engine ~until:1.;
  Lams_dlc.Sender.stop sender;
  Lams_dlc.Receiver.stop receiver;
  Sim.Engine.run engine;
  Oracle.finalize oracle;
  { recorder; violations = Oracle.violations oracle }
