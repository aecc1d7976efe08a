(** Two-way protocol timeline built from link taps.

    Attach a tracer to the two directions of a duplex and every
    transmission, arrival, corruption and loss is recorded with its
    simulated timestamp. [pp_timeline] renders the exchange as a
    two-column ladder diagram — the picture protocol papers draw —
    which the examples use to show checkpoint recovery live. *)

type direction = Forward | Reverse

type happening =
  | Sent of string
  | Received of string
  | Corrupted of string
  | Lost of string

type event = { t : float; direction : direction; happening : happening }

type t

val create : unit -> t
(** Ring buffer of the most recent 10,000 events. *)

val attach :
  t -> Sim.Engine.t -> forward:Channel.Link.t -> reverse:Channel.Link.t -> unit
(** Add a tap on each direction (their shared engine supplies the
    timestamps); taps installed before keep firing. *)

val events : t -> event list
(** Chronological (oldest first). *)

val pp_timeline : ?limit:int -> Format.formatter -> t -> unit
(** Ladder rendering: forward-direction happenings in the left column,
    reverse in the right, one row per event, capped at the first [limit]
    rows (default 60). *)
