(** Contact windows: when a satellite pair can hold a laser link.

    The paper's defining constraint is the {e short link lifetime}: a
    link exists only while the pair has line of sight and is within the
    laser terminal's range, and re-targeting a terminal costs a
    significant setup time (§1, [17]). [windows] finds the visibility
    intervals; {!distance_fn} packages a window's geometry for
    {!Channel.Link}. *)

type window = { t_start : float; t_end : float }

val duration : window -> float

val windows :
  Circular_orbit.t -> Circular_orbit.t -> from_t:float -> until_t:float -> window list
(** Visibility-and-range windows of the pair inside [from_t, until_t],
    found by sampling every 10 s and refining each edge by bisection to
    millisecond precision. The range is bounded by 10,000 km, the
    paper's upper link distance. *)

val usable :
  window -> retarget_overhead:float -> window option
(** Shrink a window by the terminal re-targeting overhead at its start;
    [None] when nothing remains — the paper's point that retargeting
    consumes a significant portion of the lifetime. *)

val distance_fn : Circular_orbit.t -> Circular_orbit.t -> float -> float
(** [distance_fn o1 o2] is [fun t -> distance at t], ready for
    [Channel.Duplex.create]. *)

val mean_distance :
  Circular_orbit.t -> Circular_orbit.t -> window -> samples:int -> float
