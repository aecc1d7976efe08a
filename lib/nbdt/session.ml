include Dlc.Session.Make (struct
  type params = Params.t

  let validate = Params.validate

  let name p =
    match p.Params.mode with
    | Params.Multiphase -> "nbdt-multiphase"
    | Params.Continuous -> "nbdt-continuous"

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
