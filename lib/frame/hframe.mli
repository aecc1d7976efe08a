(** HDLC supervisory frames, for the SR-HDLC / GBN-HDLC baselines.

    - [RR] (Receive Ready) — positive acknowledgement: all frames with
      numbers cyclically below [nr] are acknowledged; grants new credit.
    - [REJ] — Go-Back-N negative acknowledgement: retransmit from [nr].
    - [SREJ] — selective reject: retransmit exactly frame [nr].

    [pf] is the Poll/Final bit used for checkpoint recovery: a command
    with P=1 solicits an immediate response with F=1. *)

type kind = Rr | Rej | Srej

type t = { kind : kind; nr : int; pf : bool }

val create : kind:kind -> nr:int -> pf:bool -> t

val pp : Format.formatter -> t -> unit
