(** Traffic generators driving a {!Dlc.Session.t}.

    Each generator offers payloads to the session on its own schedule and
    retries refused offers. [saturating] keeps the sender's buffer topped
    up — the paper's "high traffic" regime; [deterministic] is the
    open-loop regime. *)

type t

val finished : t -> bool
(** All requested payloads have been accepted by the session. *)

val deterministic :
  Sim.Engine.t ->
  session:Dlc.Session.t ->
  rate:float ->
  count:int ->
  payload:(int -> Frame.Payload.t) ->
  t
(** One payload every [1/rate] seconds, [count] total. Refused offers are
    retried at the next tick (the tick is not consumed). *)

val saturating :
  Sim.Engine.t ->
  session:Dlc.Session.t ->
  count:int ->
  payload:(int -> Frame.Payload.t) ->
  t
(** Offer as fast as the session accepts: keep offering until refused,
    then retry whenever the backlog drops. Polls at a small interval.
    Models the paper's high-traffic assumption (arrival rate >= 1/t_f). *)

val default_payload : size:int -> int -> Frame.Payload.t
(** [default_payload ~size i]: a checkable payload of [size] bytes whose
    prefix encodes [i]. From 10 bytes up it is
    [Frame.Payload.synthetic ~index:i ~len:size]: [i] zero-padded to 10
    digits and a ['|'], cut to [size] bytes, then fill; from 11 bytes and
    below 10^10 its {!Frame.Payload.index} is [i]. Below 10 bytes the
    stem keeps the low-order digits, so payloads stay distinct for
    [i < 10^size]. Requires [i >= 0]. *)
