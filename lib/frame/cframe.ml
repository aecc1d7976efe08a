type checkpoint = {
  cp_seq : int;
  issue_time : float;
  stop_go : bool;
  enforced : bool;
  next_expected : int;
  naks : int list;
}

type t = Checkpoint of checkpoint | Request_nak of { issue_time : float }

let checkpoint ~cp_seq ~issue_time ~stop_go ~enforced ~next_expected ~naks =
  if cp_seq < 0 then invalid_arg "Cframe.checkpoint: negative cp_seq";
  if next_expected < 0 then
    invalid_arg "Cframe.checkpoint: negative next_expected";
  if List.exists (fun s -> s < 0) naks then
    invalid_arg "Cframe.checkpoint: negative seqnum in naks";
  Checkpoint { cp_seq; issue_time; stop_go; enforced; next_expected; naks }

let request_nak ~issue_time = Request_nak { issue_time }

let issue_time = function
  | Checkpoint { issue_time; _ } | Request_nak { issue_time } -> issue_time

let pp ppf = function
  | Checkpoint c ->
      Format.fprintf ppf "CP(#%d t=%.6f ne=%d%s%s naks=[%s])" c.cp_seq
        c.issue_time c.next_expected
        (if c.stop_go then " STOP" else "")
        (if c.enforced then " ENF" else "")
        (String.concat ";" (List.map string_of_int c.naks))
  | Request_nak { issue_time } -> Format.fprintf ppf "REQ-NAK(t=%.6f)" issue_time
