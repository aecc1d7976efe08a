(** Control frames (C-frames) of LAMS-DLC.

    Three commands exist (paper §3.1):

    - {b Check-Point} — issued by the receiver every checkpoint interval.
      Carries a checkpoint sequence number, the Stop-Go flow-control bit
      and a (possibly empty) cumulative NAK list covering the last
      [C_depth] intervals. With a nonempty list it is a
      {e Check-Point-NAK}.
    - {b Enforced-NAK / Resolving command} — a Check-Point with the
      Enforced bit set, sent immediately in answer to a Request-NAK,
      listing every erroneous frame of the resolving period (empty list =
      pure resynchronisation, "Resolving Command").
    - {b Request-NAK} — sent by the {e sender} when no checkpoint has
      arrived for [C_depth * W_cp]; asks for an immediate Enforced-NAK.

    [issue_time] is the simulated instant the command was created. The
    paper assumes deterministic link behaviour (§2.2 assumption 8 and
    §3.2), i.e. peers know distances precisely; carrying the issue time
    realises the same knowledge explicitly and lets the sender decide
    which frames a checkpoint covers. *)

type checkpoint = {
  cp_seq : int;  (** checkpoint sequence number, increments per command *)
  issue_time : float;  (** simulated creation time, seconds *)
  stop_go : bool;  (** [true] = receiver asks sender to slow down *)
  enforced : bool;  (** [true] = Enforced-NAK (answer to Request-NAK) *)
  next_expected : int;
      (** receiver's next expected N(S). Part of the command's "cumulative
          error information": it lets the sender recognise frames that
          vanished without trace at the {e tail} of the stream (nothing
          after them arrived, so gap detection alone cannot flag them).
          Sound under the paper's deterministic-link assumption. *)
  naks : int array;
      (** seqnums to retransmit, cumulative over [C_depth]. The receiver
          builds the array once, ascending; nothing mutates it
          afterwards, so the observers, the link, the guard and the
          sender may all read the same array in place, and a forgery
          that changes the list builds a new one. *)
}

type t = Checkpoint of checkpoint | Request_nak of { issue_time : float }

val checkpoint :
  cp_seq:int ->
  issue_time:float ->
  stop_go:bool ->
  enforced:bool ->
  next_expected:int ->
  naks:int array ->
  t
(** Rejects a negative [cp_seq], [next_expected] or NAK entry. Keeps
    [naks] itself, not a copy. *)

val request_nak : issue_time:float -> t

val issue_time : t -> float

val pp : Format.formatter -> t -> unit
