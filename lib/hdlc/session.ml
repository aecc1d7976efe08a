include Dlc.Session.Make (struct
  type params = Params.t

  let validate = Params.validate

  let name p =
    let base =
      match p.Params.mode with
      | Params.Selective_repeat -> "sr-hdlc"
      | Params.Go_back_n -> "gbn-hdlc"
    in
    if p.Params.stutter then base ^ "+st" else base

  let guard p = p.Params.guard
  let replayable = function Frame.Wire.Hdlc_control _ -> true | _ -> false

  module Sender = Sender
  module Receiver = Receiver

  let feedback p sender =
    Dlc.Guard.Supervisory
      {
        modulus = Params.modulus p;
        v_s = (fun () -> Sender.v_s sender);
        v_a = (fun () -> Sender.v_a sender);
        is_outstanding = (fun s -> Sender.is_outstanding sender s);
      }
end)
