type t = {
  closed_at : float;
  unresolved : Lams_dlc.Sender.unresolved list;  (* oldest first *)
}

let snapshot ~now session =
  let sender = Lams_dlc.Session.sender session in
  Lams_dlc.Sender.stop sender;
  Lams_dlc.Receiver.stop (Lams_dlc.Session.receiver session);
  { closed_at = now; unresolved = Lams_dlc.Sender.drain_unresolved sender }

let closed_at t = t.closed_at

let unresolved t = t.unresolved

let payloads t = List.map (fun u -> u.Lams_dlc.Sender.payload) t.unresolved

let count verdict t =
  List.length
    (List.filter (fun u -> u.Lams_dlc.Sender.verdict = verdict) t.unresolved)

let suspicious t = count `Suspicious t

let corrupt ?(drop = 0) ?(flip = false) t =
  let drop = max 0 drop in
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | u :: rest -> split (n - 1) (u :: acc) rest
  in
  let dropped, kept = split drop [] t.unresolved in
  let kept =
    if not flip then kept
    else
      List.map
        (fun u ->
          {
            u with
            Lams_dlc.Sender.verdict =
              (match u.Lams_dlc.Sender.verdict with
              | `Not_delivered -> `Suspicious
              | `Suspicious -> `Not_delivered);
          })
        kept
  in
  ( { t with unresolved = kept },
    List.map (fun u -> u.Lams_dlc.Sender.payload) dropped )
