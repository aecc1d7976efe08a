(** Inter-satellite geometry: distances and line-of-sight visibility. *)

val distance_m : Circular_orbit.t -> Circular_orbit.t -> at:float -> float

val line_of_sight :
  ?grazing_altitude_m:float ->
  Circular_orbit.t ->
  Circular_orbit.t ->
  at:float ->
  bool
(** Is the straight-line path between the two satellites clear of the
    Earth (plus [grazing_altitude_m] of atmosphere, default 100 km)?
    Computed from the minimum distance of the segment to the geocentre. *)
