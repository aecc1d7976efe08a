(** Inter-satellite geometry: distances and line-of-sight visibility. *)

val distance_m : Circular_orbit.t -> Circular_orbit.t -> at:float -> float

val line_of_sight : Circular_orbit.t -> Circular_orbit.t -> at:float -> bool
(** Is the straight-line path between the two satellites clear of the
    Earth plus 100 km of atmosphere?
    Computed from the minimum distance of the segment to the geocentre. *)
