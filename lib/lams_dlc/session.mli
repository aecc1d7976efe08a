(** A running LAMS-DLC association over a full-duplex link: the
    {!Dlc.Session.Make} skeleton over {!Sender} and {!Receiver}. All six
    corruption classes are supported; reverse replay re-sends captured
    checkpoints. *)

include
  Dlc.Session.S
    with type params = Params.t
     and type sender = Sender.t
     and type receiver = Receiver.t
