(** Contact plan: the window schedule a {!Lifecycle} executes.

    A plan is an ordered, non-overlapping list of {!Orbit.Contact}
    windows plus the terminal re-targeting overhead paid at the start of
    every window (§1, §3.2). Plans come from a window list
    ({!scripted_exn}) or from a plan file ({!load}) in the format
    accepted by [lams_dlc_cli --contact-plan]:

    {v
    # comment; blank lines ignored
    retarget 5.0        # seconds, at most once, default 0
    window 0 60         # start end, seconds, ordered, non-overlapping
    window 120 200
    v} *)

type t

val scripted_exn : retarget_overhead:float -> Orbit.Contact.window list -> t
(** Raises [Invalid_argument] on a negative overhead or on windows that
    are empty, reversed or out of order. *)

val windows : t -> Orbit.Contact.window list

val retarget_overhead : t -> float

val end_time : t -> float option
(** [t_end] of the last window; [None] for an empty plan. *)

val load : string -> (t, string) result
(** Read a plan file; errors mention the offending line. *)

val pp : Format.formatter -> t -> unit
