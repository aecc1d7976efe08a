type t = {
  engine : Sim.Engine.t;
  sender : Sender.t;
  receiver : Receiver.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  name : string;
  reverse : Channel.Link.t;
  guard : Dlc.Guard.t option;
  mutable reverse_ring : Frame.Wire.t list;
      (* recent reverse-link supervisory frames, newest first, for
         stale-frame replay injection *)
  mutable user_deliver : (payload:Frame.Payload.t -> unit) option;
}

let reverse_ring_depth = 8

let create ?probe engine ~params ~duplex =
  let params =
    match Params.validate params with
    | Ok p -> p
    | Error msg -> invalid_arg ("Hdlc.Session.create: " ^ msg)
  in
  let probe = match probe with Some p -> p | None -> Dlc.Probe.create () in
  let metrics = Dlc.Metrics.create () in
  let sender =
    Sender.create engine ~params ~forward:duplex.Channel.Duplex.forward ~metrics
      ~probe
  in
  let receiver =
    Receiver.create engine ~params ~reverse:duplex.Channel.Duplex.reverse
      ~metrics ~probe
  in
  let name =
    let base =
      match params.Params.mode with
      | Params.Selective_repeat -> "sr-hdlc"
      | Params.Go_back_n -> "gbn-hdlc"
    in
    if params.Params.stutter then base ^ "+st" else base
  in
  let guard =
    match params.Params.guard with
    | None -> None
    | Some cfg ->
        Some
          (Dlc.Guard.create cfg ~probe
             ~hooks:
               {
                 Dlc.Guard.now = (fun () -> Sim.Engine.now engine);
                 feedback =
                   Dlc.Guard.Supervisory
                     {
                       modulus = Params.modulus params;
                       v_s = (fun () -> Sender.v_s sender);
                       v_a = (fun () -> Sender.v_a sender);
                       is_outstanding = (fun s -> Sender.is_outstanding sender s);
                     };
                 force_resync = (fun () -> Sender.force_resync sender);
                 declare_failure = (fun () -> Sender.force_failure sender);
               }
             ~deliver:(fun rx -> Sender.on_rx sender rx))
  in
  let t =
    {
      engine;
      sender;
      receiver;
      metrics;
      probe;
      name;
      reverse = duplex.Channel.Duplex.reverse;
      guard;
      reverse_ring = [];
      user_deliver = None;
    }
  in
  Channel.Link.add_tap duplex.Channel.Duplex.reverse (fun ev ->
      match ev with
      | Channel.Link.Tap_tx (Frame.Wire.Hdlc_control _ as frame) ->
          let rec take n = function
            | [] -> []
            | _ when n = 0 -> []
            | x :: rest -> x :: take (n - 1) rest
          in
          t.reverse_ring <- take reverse_ring_depth (frame :: t.reverse_ring)
      | _ -> ());
  Channel.Link.set_receiver duplex.Channel.Duplex.forward (fun rx ->
      Receiver.on_rx receiver rx);
  Channel.Link.set_receiver duplex.Channel.Duplex.reverse (fun rx ->
      match guard with
      | Some g -> Dlc.Guard.on_rx g rx
      | None -> Sender.on_rx sender rx);
  Receiver.set_on_deliver receiver (fun ~payload ~seq ->
      (match Sender.offer_time_of_seq sender seq with
      | Some t0 ->
          Stats.Online.add metrics.Dlc.Metrics.delivery_delay
            (Sim.Engine.now engine -. t0)
      | None -> ());
      match t.user_deliver with None -> () | Some f -> f ~payload);
  t

let sender t = t.sender

let receiver t = t.receiver

let metrics t = t.metrics

let probe t = t.probe

let guard t = t.guard

let replay_reverse t ~copies ~back =
  if copies < 1 then None
  else
    match t.reverse_ring with
    | [] -> None
    | ring ->
        let n = List.length ring in
        let frame = List.nth ring (min (max back 0) (n - 1)) in
        (* defer the sends one zero-delay event: the injector publishes
           State_corrupted only after this mutator returns, and the
           suspect window must be open before the stale frames hit the
           reverse-link taps *)
        ignore
          (Sim.Engine.schedule t.engine ~delay:0. (fun () ->
               for _ = 1 to copies do
                 Channel.Link.send t.reverse frame
               done)
            : Sim.Engine.event_id);
        Some
          (Format.asprintf "replayed stale %a x%d (age %d)" Frame.Wire.pp
             frame copies (min (max back 0) (n - 1)))

let corrupt_surface t =
  {
    Dlc.Corrupt.scramble_send_seq =
      (fun ~delta -> Sender.scramble_v_s t.sender ~delta);
    scramble_recv_seq =
      (fun ~delta -> Receiver.scramble_v_r t.receiver ~delta);
    poison_nak_ledger =
      (fun ~seqs -> Receiver.poison_nak_ledger t.receiver ~seqs);
    truncate_nak_ledger = (fun () -> Receiver.truncate_nak_ledger t.receiver);
    duplicate_buffer_entry = (fun () -> Sender.duplicate_buffer_entry t.sender);
    replay_reverse = (fun ~copies ~back -> replay_reverse t ~copies ~back);
  }

let as_dlc t =
  {
    Dlc.Session.name = t.name;
    offer = (fun payload -> Sender.offer t.sender payload);
    set_on_deliver = (fun f -> t.user_deliver <- Some f);
    sender_backlog = (fun () -> Sender.backlog t.sender);
    stop =
      (fun () ->
        Sender.stop t.sender;
        Receiver.stop t.receiver);
    metrics = t.metrics;
  }
