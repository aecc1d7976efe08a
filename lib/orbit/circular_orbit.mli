(** Circular Keplerian orbits.

    The paper's LAMS network is "multiple satellites in a low altitude
    orbit" (§2.1); circular orbits capture everything its link model
    needs — time-varying inter-satellite distance, velocity, and
    visibility windows. No perturbations (J2, drag): a LAMS link session
    lasts minutes, over which Keplerian motion dominates. *)

val earth_radius_m : float
(** 6,371 km mean radius. *)

type t = {
  altitude_m : float;  (** above mean Earth radius *)
  inclination_rad : float;
  raan_rad : float;  (** right ascension of the ascending node at t = 0 *)
  phase_rad : float;  (** argument of latitude at t = 0 *)
}

val create :
  altitude_m:float ->
  inclination_rad:float ->
  raan_rad:float ->
  phase_rad:float ->
  unit ->
  t
(** Requires positive altitude. *)

val period : t -> float
(** Orbital period, seconds: [2π√(a³/μ)]. *)

val position : t -> at:float -> Vec3.t
(** ECI position at simulated time [at]. *)
