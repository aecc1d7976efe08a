type t = {
  name : string;
  offer : Frame.Payload.t -> bool;
  set_on_deliver : (payload:Frame.Payload.t -> unit) -> unit;
  sender_backlog : unit -> int;
  stop : unit -> unit;
  metrics : Metrics.t;
}

module type VARIANT = sig
  type params

  val validate : params -> (params, string) result

  val name : params -> string

  val guard : params -> Guard.config option

  val replayable : Frame.Wire.t -> bool

  module Sender : sig
    type t

    val create :
      Sim.Engine.t ->
      params:params ->
      forward:Channel.Link.t ->
      metrics:Metrics.t ->
      probe:Probe.t ->
      t

    val offer : t -> Frame.Payload.t -> bool
    val on_rx : t -> Channel.Link.rx -> unit
    val backlog : t -> int
    val force_resync : t -> unit
    val force_failure : t -> unit
    val note_delivered : t -> int -> unit
    val stop : t -> unit
    val scramble_send_seq : t -> delta:int -> string option
    val duplicate_buffer_entry : t -> string option
  end

  module Receiver : sig
    type t

    val create :
      Sim.Engine.t ->
      params:params ->
      reverse:Channel.Link.t ->
      metrics:Metrics.t ->
      probe:Probe.t ->
      t

    val on_rx : t -> Channel.Link.rx -> unit
    val set_on_deliver : t -> (payload:Frame.Payload.t -> seq:int -> unit) -> unit
    val stop : t -> unit
    val scramble_recv_seq : t -> delta:int -> string option
    val poison_nak_ledger : t -> seqs:int list -> string option
    val truncate_nak_ledger : t -> string option
  end

  val feedback : params -> Sender.t -> Guard.feedback_hooks
end

module type S = sig
  type dlc := t
  type params
  type sender
  type receiver
  type t

  val create :
    ?probe:Probe.t -> Sim.Engine.t -> params:params -> duplex:Channel.Duplex.t -> t

  val sender : t -> sender
  val receiver : t -> receiver
  val probe : t -> Probe.t
  val guard : t -> Guard.t option
  val corrupt_surface : t -> Corrupt.surface
  val as_dlc : t -> dlc
end

let reverse_ring_depth = 8

module Make (V : VARIANT) = struct
  type dlc = t
  type params = V.params
  type sender = V.Sender.t
  type receiver = V.Receiver.t

  type t = {
    engine : Sim.Engine.t;
    name : string;
    sender : sender;
    receiver : receiver;
    metrics : Metrics.t;
    probe : Probe.t;
    reverse : Channel.Link.t;
    guard : Guard.t option;
    mutable reverse_ring : Frame.Wire.t array;
        (* recent replayable reverse-link frames; empty until the first,
           then [reverse_ring_depth] slots *)
    mutable ring_head : int;  (* slot of the newest frame *)
    mutable ring_len : int;  (* frames held *)
    mutable user_deliver : (payload:Frame.Payload.t -> unit) option;
  }

  let create ?probe engine ~params ~duplex =
    let params =
      match V.validate params with
      | Ok p -> p
      | Error msg -> invalid_arg (V.name params ^ " session: " ^ msg)
    in
    let probe = match probe with Some p -> p | None -> Probe.create () in
    let metrics = Metrics.create () in
    let forward = duplex.Channel.Duplex.forward in
    let reverse = duplex.Channel.Duplex.reverse in
    let sender = V.Sender.create engine ~params ~forward ~metrics ~probe in
    let receiver = V.Receiver.create engine ~params ~reverse ~metrics ~probe in
    let guard =
      match V.guard params with
      | None -> None
      | Some _ ->
          Some
            (Guard.create ~probe
               ~hooks:
                 {
                   Guard.now = (fun () -> Sim.Engine.now engine);
                   feedback = V.feedback params sender;
                   force_resync = (fun () -> V.Sender.force_resync sender);
                   declare_failure = (fun () -> V.Sender.force_failure sender);
                 }
               ~deliver:(fun rx -> V.Sender.on_rx sender rx))
    in
    let t =
      {
        engine;
        name = V.name params;
        sender;
        receiver;
        metrics;
        probe;
        reverse;
        guard;
        reverse_ring = [||];
        ring_head = 0;
        ring_len = 0;
        user_deliver = None;
      }
    in
    Channel.Link.add_tap reverse (function
      | Channel.Link.Tap_tx frame when V.replayable frame ->
          if t.ring_len = 0 then
            t.reverse_ring <- Array.make reverse_ring_depth frame;
          t.ring_head <- (t.ring_head + 1) mod reverse_ring_depth;
          t.reverse_ring.(t.ring_head) <- frame;
          if t.ring_len < reverse_ring_depth then t.ring_len <- t.ring_len + 1
      | _ -> ());
    Channel.Link.set_receiver forward (fun rx -> V.Receiver.on_rx receiver rx);
    Channel.Link.set_receiver reverse (fun rx ->
        match guard with
        | Some g -> Guard.on_rx g rx
        | None -> V.Sender.on_rx sender rx);
    V.Receiver.set_on_deliver receiver (fun ~payload ~seq ->
        V.Sender.note_delivered sender seq;
        match t.user_deliver with None -> () | Some f -> f ~payload);
    t

  let sender t = t.sender
  let receiver t = t.receiver
  let probe t = t.probe
  let guard t = t.guard

  (* Replay a stale reverse-link frame [back] positions old, [copies]
     times: a duplicating / non-FIFO reverse channel in the sense of
     Dolev et al. The sender must shrug off out-of-date feedback. *)
  let replay_reverse t ~copies ~back =
    if copies < 1 || t.ring_len = 0 then None
    else
      let age = min (max back 0) (t.ring_len - 1) in
      let frame =
        t.reverse_ring.((t.ring_head - age + reverse_ring_depth)
                        mod reverse_ring_depth)
      in
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
        (Format.asprintf "replayed stale %a x%d (age %d)" Frame.Wire.pp frame
           copies age)

  let corrupt_surface t =
    {
      Corrupt.scramble_send_seq =
        (fun ~delta -> V.Sender.scramble_send_seq t.sender ~delta);
      scramble_recv_seq =
        (fun ~delta -> V.Receiver.scramble_recv_seq t.receiver ~delta);
      poison_nak_ledger =
        (fun ~seqs -> V.Receiver.poison_nak_ledger t.receiver ~seqs);
      truncate_nak_ledger = (fun () -> V.Receiver.truncate_nak_ledger t.receiver);
      duplicate_buffer_entry = (fun () -> V.Sender.duplicate_buffer_entry t.sender);
      replay_reverse = (fun ~copies ~back -> replay_reverse t ~copies ~back);
    }

  let as_dlc t : dlc =
    {
      name = t.name;
      offer = (fun payload -> V.Sender.offer t.sender payload);
      set_on_deliver = (fun f -> t.user_deliver <- Some f);
      sender_backlog = (fun () -> V.Sender.backlog t.sender);
      stop =
        (fun () ->
          V.Sender.stop t.sender;
          V.Receiver.stop t.receiver);
      metrics = t.metrics;
    }
end
