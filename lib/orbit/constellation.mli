(** Walker-delta constellations.

    A Walker pattern [i: T/P/F] spreads [T] satellites over [P] equally
    spaced orbital planes at inclination [i], with [F] controlling the
    phase offset between adjacent planes. This is the standard shape of
    proposed LEO systems (the paper's reference [16] Iridium-class
    networks). *)

type t

type sat = { id : int; plane : int; index_in_plane : int; orbit : Circular_orbit.t }

val walker :
  total:int ->
  planes:int ->
  phasing:int ->
  altitude_m:float ->
  inclination_rad:float ->
  t
(** Requires [planes >= 1], [total] divisible by [planes], and
    [0 <= phasing < planes]. *)

val size : t -> int

val sat : t -> int -> sat
(** By id, [0 <= id < size]. *)
