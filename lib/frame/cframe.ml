type checkpoint = {
  cp_seq : int;
  issue_time : float;
  stop_go : bool;
  enforced : bool;
  next_expected : int;
  naks : int array;
}

type t = Checkpoint of checkpoint | Request_nak of { issue_time : float }

(* A recursive scan, not [Array.exists]: no closure per checkpoint. *)
let rec any_negative naks i =
  i < Array.length naks
  && (Array.unsafe_get naks i < 0 || any_negative naks (i + 1))

let checkpoint ~cp_seq ~issue_time ~stop_go ~enforced ~next_expected ~naks =
  if cp_seq < 0 then invalid_arg "Cframe.checkpoint: negative cp_seq";
  if next_expected < 0 then
    invalid_arg "Cframe.checkpoint: negative next_expected";
  if any_negative naks 0 then
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
        (String.concat ";" (Array.to_list (Array.map string_of_int c.naks)))
  | Request_nak { issue_time } -> Format.fprintf ppf "REQ-NAK(t=%.6f)" issue_time
