type link_state = Link_up | Link_retargeting | Link_down | Link_failed

let link_state_name = function
  | Link_up -> "up"
  | Link_retargeting -> "retargeting"
  | Link_down -> "down"
  | Link_failed -> "failed"

type event =
  | Offered of { payload : Frame.Payload.t }
  | Tx of { seq : int; payload : Frame.Payload.t; retx : bool }
  | Released of { seq : int; payload : Frame.Payload.t }
  | Requeued of { seq : int; payload : Frame.Payload.t }
  | Delivered of { seq : int; payload : Frame.Payload.t }
  | Recovery_started
  | Recovery_completed
  | Failure_declared
  | Link_transition of { state : link_state }
  | Cp_emitted of {
      cp_seq : int;
      next_expected : int;
      enforced : bool;
      stop_go : bool;
      naks : int list;
    }
  | State_corrupted of { klass : string; detail : string }
  | Converged of { after : float; anomalies : int }
  | Cp_quarantined of { cp_seq : int; reason : string; distrust : int }
  | Resync_forced of { attempt : int }

let event_name = function
  | Offered _ -> "offered"
  | Tx { retx = false; _ } -> "tx"
  | Tx { retx = true; _ } -> "retx"
  | Released _ -> "released"
  | Requeued _ -> "requeued"
  | Delivered _ -> "delivered"
  | Recovery_started -> "recovery-started"
  | Recovery_completed -> "recovery-completed"
  | Failure_declared -> "failure-declared"
  | Link_transition { state } -> "link-" ^ link_state_name state
  | Cp_emitted { naks = []; _ } -> "cp"
  | Cp_emitted _ -> "cp-nak"
  | State_corrupted _ -> "state-corrupted"
  | Converged _ -> "converged"
  | Cp_quarantined _ -> "cp-quarantined"
  | Resync_forced _ -> "resync-forced"

type t = { mutable handlers : (now:float -> event -> unit) list }

let create () = { handlers = [] }

let subscribe t f = t.handlers <- t.handlers @ [ f ]

let active t = t.handlers <> []

let emit t ~now event =
  match t.handlers with
  | [] -> ()
  | handlers -> List.iter (fun f -> f ~now event) handlers
