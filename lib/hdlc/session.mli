(** A running HDLC association (SR or GBN) over a full-duplex link: the
    {!Dlc.Session.Make} skeleton over {!Sender} and {!Receiver}. Reverse
    replay re-sends captured supervisory frames. *)

include
  Dlc.Session.S
    with type params = Params.t
     and type sender = Sender.t
     and type receiver = Receiver.t
