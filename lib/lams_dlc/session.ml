include Dlc.Session.Make (struct
  type params = Params.t

  let validate = Params.validate
  let name _ = "lams-dlc"
  let guard p = p.Params.guard
  let replayable = function Frame.Wire.Control _ -> true | _ -> false

  module Sender = Sender
  module Receiver = Receiver

  let feedback _ sender =
    Dlc.Guard.Checkpointed
      {
        next_seq = (fun () -> Sender.next_seq sender);
        is_outstanding = (fun s -> Sender.is_outstanding sender s);
      }
end)
