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

val create : ?capacity:int -> unit -> t
(** Ring buffer of the most recent [capacity] events (default 10,000). *)

val attach :
  t -> Sim.Engine.t -> forward:Channel.Link.t -> reverse:Channel.Link.t -> unit
(** Add a tap on each direction (their shared engine supplies the
    timestamps); taps installed before keep firing. *)

val events : t -> event list
(** Chronological (oldest first). *)

val pp_timeline :
  ?limit:int -> ?from_t:float -> Format.formatter -> t -> unit
(** Ladder rendering: forward-direction happenings in the left column,
    reverse in the right, one row per event, capped at [limit] rows
    (default 60) starting at [from_t] (default 0). *)
